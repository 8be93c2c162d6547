package corpus

import "fmt"

// Scale selects how large a preset corpus is generated. The paper's WSJ
// samples are reproduced at three sizes: Small for unit/integration tests,
// Harness for the default benchmark runs (shape-preserving, roughly an order
// of magnitude below the paper), and Paper at the published document counts.
type Scale int

const (
	// Small is the test scale: seconds-fast, still exhibits skew and a
	// Zipfian vocabulary.
	Small Scale = iota
	// Harness is the default experiment scale used by cmd/pmihp-bench.
	Harness
	// Paper matches the paper's document and vocabulary counts.
	Paper
)

// ParseScale converts a flag value ("small", "harness", "paper").
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "harness":
		return Harness, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("corpus: unknown scale %q (want small|harness|paper)", s)
}

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Harness:
		return "harness"
	case Paper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Preset resolves a preset corpus by the name the command-line tools'
// -corpus flag takes — a, b, c, dense (or d), skewed (or s) — at the
// given scale.
func Preset(name string, s Scale) (Config, error) {
	switch name {
	case "a":
		return CorpusA(s), nil
	case "b":
		return CorpusB(s), nil
	case "c":
		return CorpusC(s), nil
	case "d", "dense":
		return CorpusDense(s), nil
	case "s", "skewed":
		return CorpusSkewed(s), nil
	}
	return Config{}, fmt.Errorf("unknown corpus %q (want a, b, c, dense, or skewed)", name)
}

// The presets share the tuned language-model shape: Zipf exponent 1.05 with
// the head removed (HeadCut), which calibrates the pair co-occurrence
// density of the stop-worded WSJ samples — the quantity that determines F2
// and candidate-set sizes (validated against the paper's corpus C, which has
// ~1.55M frequent 2-itemsets from 6,170 documents, i.e. ~2% of occurring
// pairs repeating). VocabSize exceeds the paper's reported unique-word
// counts because the long Zipf tail is only partially realized in a sample.

// CorpusA models the paper's 6-month WSJ sample (Apr 2 – Sep 28, 1990:
// 21,703 documents, 116,849 unique words, ~126 publication days). Used for
// the Figure 4 and Figure 5 minimum-support sweeps, which run at 1.75%-5%
// support — so this preset keeps a moderately strong content head (small
// HeadCut) to populate those levels, unlike B and C, which are mined at a
// minimum support count of 2 and therefore calibrate for low pair density.
func CorpusA(s Scale) Config {
	cfg := Config{
		Name:         "wsj-6mo(A)",
		DocLenSigma:  0.5,
		ZipfS:        1.05,
		TopicsPerDay: 8, TopicWords: 100,
		Skew:       0.25,
		GlobalSkew: 0.30,
		Seed:       19900402,
	}
	switch s {
	case Paper:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 21703, 126, 160000, 400, 160
		cfg.GlobalTopics, cfg.GlobalTopicWords = 30, 50
	case Harness:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 2000, 63, 30000, 150, 90
		cfg.GlobalTopics, cfg.GlobalTopicWords = 25, 40
	default:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 240, 21, 6000, 40, 35
		cfg.GlobalTopics, cfg.GlobalTopicWords = 12, 18
	}
	return cfg
}

// CorpusB models the paper's 8-day WSJ sample (from Oct 1, 1991: 1,427
// documents, 31,290 unique words, mean 178 docs/day). Used for the node
// scaling experiments (Figures 6–11) at minimum support count 2.
func CorpusB(s Scale) Config {
	cfg := Config{
		Name:         "wsj-8day(B)",
		DocLenSigma:  0.45,
		ZipfS:        1.05,
		TopicsPerDay: 8, TopicWords: 100,
		Skew: 0.30,
		Seed: 19911001,
	}
	switch s {
	case Paper:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 1427, 8, 45000, 1500, 170
	case Harness:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 480, 8, 20000, 1000, 100
	default:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 96, 8, 4000, 200, 32
	}
	return cfg
}

// CorpusDense models corpus B mined *without* the stop-word pass: HeadCut
// is zero, so the Zipf head — the function words the Fox stoplist would
// strip — stays in the documents and the highest-frequency words appear in
// a large fraction of them. Their posting lists are dense over the TID
// span, which is the regime the hybrid bitmap/compressed posting layout is
// built for; the bench harness mines it as E9Dense to keep the bitmap
// kernels on a timed workload.
func CorpusDense(s Scale) Config {
	cfg := CorpusB(s)
	cfg.Name = "wsj-8day-nostop(D)"
	cfg.HeadCut = 0
	cfg.Seed = 19911002
	return cfg
}

// CorpusSkewed models corpus B with a heavily skewed timeline: Zipfian
// per-day publication volumes (the first days carry most of the news)
// and day-correlated document lengths (early coverage is long-form,
// late coverage short). Under the paper's equal-document-count
// chronological assignment the early nodes receive roughly twice the
// counting work of the late ones, so the fleet idles waiting for node
// 0 — the straggler regime the work-balanced partitioner
// (mining.PartitionByWork) and the coordinator's straggler re-split
// exist for. The bench harness mines it as E10Skew under both
// partitioners to keep the work split's simulated-seconds win visible
// (and regressing) per revision.
func CorpusSkewed(s Scale) Config {
	cfg := CorpusB(s)
	cfg.Name = "wsj-8day-skewed(S)"
	cfg.Seed = 19911003
	cfg.DayVolumeZipfS = 1.3
	cfg.DayLenSlope = 0.6
	// Tighter per-document length noise than B: the skew this preset
	// exists for is the day-correlated regime (long early days, short
	// late ones), which a cost-model splitter can balance. B's wide
	// lognormal occasionally produces a single monster document whose
	// quadratic candidate-pair work dwarfs everything else — that skew
	// is atomic and no document-granular partitioner can divide it.
	cfg.DocLenSigma = 0.30
	return cfg
}

// CorpusC models the paper's 8-week WSJ sample (Jan 2 – Feb 22, 1991: 6,170
// documents, 64,191 unique words, ~40 publication days). Used for the large
// low-support run reported in §3's closing experiment.
func CorpusC(s Scale) Config {
	cfg := Config{
		Name:         "wsj-8wk(C)",
		DocLenSigma:  0.5,
		ZipfS:        1.05,
		TopicsPerDay: 8, TopicWords: 100,
		Skew: 0.30,
		Seed: 19910102,
	}
	switch s {
	case Paper:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 6170, 40, 90000, 1500, 160
	case Harness:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 1200, 40, 25000, 1000, 90
	default:
		cfg.Docs, cfg.Days, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 200, 40, 5000, 250, 35
	}
	return cfg
}
