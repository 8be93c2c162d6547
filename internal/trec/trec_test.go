package trec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `<DOC>
<DOCNO> WSJ900402-0001 </DOCNO>
<HL> Stock Markets Rally </HL>
<TEXT>
The stock market rallied sharply as interest rates fell.
Traders cited the federal report on inflation.
</TEXT>
</DOC>
<DOC>
<DOCNO> WSJ900403-0117 </DOCNO>
<TEXT>
Bond prices slipped. The market awaited the employment report.
</TEXT>
</DOC>
`

func TestParse(t *testing.T) {
	docs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("parsed %d docs", len(docs))
	}
	if docs[0].DocNo != "WSJ900402-0001" {
		t.Fatalf("DocNo = %q", docs[0].DocNo)
	}
	if !strings.Contains(docs[0].Body, "stock market rallied") {
		t.Fatalf("body lost text: %q", docs[0].Body)
	}
	if strings.Contains(docs[0].Body, "<TEXT>") || strings.Contains(docs[0].Body, "<HL>") {
		t.Fatalf("markup leaked into body: %q", docs[0].Body)
	}
	// Auxiliary containers like <HL> contribute their text.
	if !strings.Contains(docs[0].Body, "Stock Markets Rally") {
		t.Fatalf("headline text dropped: %q", docs[0].Body)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"<DOC>\n<DOC>\n",            // nested
		"</DOC>\n",                  // close without open
		"<DOC>\n<DOCNO>x</DOCNO>\n", // unterminated
	}
	for _, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("accepted malformed input %q", s)
		}
	}
}

func TestParseSkipsInterstitialText(t *testing.T) {
	in := "volume header junk\n" + sample + "trailing junk\n"
	docs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("parsed %d docs", len(docs))
	}
}

func TestDayFromDocno(t *testing.T) {
	cases := []struct {
		docno string
		want  int
	}{
		{"WSJ900402-0001", 900402},
		{"WSJ911001-0123", 911001},
		{"AP880212-0001", 880212},
		{"NODATE", 0},
		{"X12-3", 0}, // too few digits
	}
	for _, c := range cases {
		if got := DayFromDocno(Doc{DocNo: c.docno}, 0); got != c.want {
			t.Errorf("DayFromDocno(%q) = %d, want %d", c.docno, got, c.want)
		}
	}
}

func TestPrepareDenseDays(t *testing.T) {
	raw := []Doc{
		{DocNo: "WSJ900403-1", Body: "Bond prices slipped"},
		{DocNo: "WSJ900402-1", Body: "Stocks rallied"},
		{DocNo: "WSJ900403-2", Body: "Rates fell"},
	}
	docs := Prepare(raw, nil)
	// 900402 is the earliest key, so it becomes day 0.
	if docs[0].Day != 1 || docs[1].Day != 0 || docs[2].Day != 1 {
		t.Fatalf("days = %d,%d,%d", docs[0].Day, docs[1].Day, docs[2].Day)
	}
	// Preprocessing applied: lowercased, stop-filtered, sorted distinct.
	found := false
	for _, w := range docs[1].Words {
		if w == "stocks" {
			found = true
		}
		if w == "the" {
			t.Fatal("stop word survived")
		}
	}
	if !found {
		t.Fatalf("words = %v", docs[1].Words)
	}
}

// DayByIndex assigns days by evenly slicing the document sequence into the
// given number of days — for collections without date information.
func DayByIndex(days, total int) DayFunc {
	return func(_ Doc, index int) int {
		if total <= 0 || days <= 0 {
			return 0
		}
		d := index * days / total
		if d >= days {
			d = days - 1
		}
		return d
	}
}

func TestDayByIndex(t *testing.T) {
	f := DayByIndex(4, 100)
	if f(Doc{}, 0) != 0 || f(Doc{}, 99) != 3 || f(Doc{}, 50) != 2 {
		t.Fatal("DayByIndex slicing wrong")
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wsj_sample")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	docs, err := ParseFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("parsed %d docs", len(docs))
	}
	if _, err := ParseFile(filepath.Join(dir, "missing"), nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestStripTags(t *testing.T) {
	got := stripTags("<p>Hello <b>world</b></p>")
	if !strings.Contains(got, "Hello") || !strings.Contains(got, "world") ||
		strings.Contains(got, "<") {
		t.Fatalf("stripTags = %q", got)
	}
}
