package core

import (
	"math/rand"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Bounds that keep one fuzz input's exhaustive count cheap: at most
// fuzzMaxTxLen items per transaction over fuzzItems items, and inputs of
// at most fuzzMaxBytes bytes.
const (
	fuzzItems    = 32
	fuzzMaxTxLen = 8
	fuzzMaxBytes = 1 << 10
)

// fuzzDB decodes fuzz input into a database: each byte adds the item
// b%fuzzItems to the current transaction, and a zero byte — or the
// transaction's fuzzMaxTxLen-th byte — closes it. TIDs run in input
// order, so the hash slots of a node's THT fill in order too.
func fuzzDB(data []byte) *txdb.DB {
	var txs []txdb.Transaction
	var raw []uint32
	flush := func() {
		txs = append(txs, txdb.Transaction{TID: txdb.TID(len(txs)), Items: itemset.New(raw...)})
		raw = raw[:0]
	}
	for _, b := range data {
		if b == 0 {
			flush()
			continue
		}
		raw = append(raw, uint32(b)%fuzzItems)
		if len(raw) == fuzzMaxTxLen {
			flush()
		}
	}
	flush()
	return txdb.New(txs, fuzzItems)
}

// fuzzCorpus encodes txs random transactions in fuzzDB's format, with
// item ids skewed toward the low end so rows range from a few occupied
// THT slots to most of them.
func fuzzCorpus(seed int64, txs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var data []byte
	for i := 0; i < txs; i++ {
		for k := 1 + rng.Intn(5); k > 0; k-- {
			u := rng.Float64()
			data = append(data, byte(1+int(u*u*(fuzzItems-1))))
		}
		data = append(data, 0)
	}
	return data
}

// fuzzWidth is the per-node THT width a fuzz input selects: RunNode gives
// each of n nodes max(THTEntries/n, 4) slots.
func fuzzWidth(widthRaw uint8) int { return 1 + int(widthRaw)%133 }

// FuzzPMIHPBruteForce: on any small database and any options, PMIHP (the
// simulated n-node cluster) and sequential MIHP each find exactly the
// frequent itemsets and supports of exhaustive counting. The per-node THT
// width spans 1–133 slots, so the pair bounds run on one-word masks and
// on multi-word ones; the checked-in seeds sit at the 64-slot boundary.
func FuzzPMIHPBruteForce(f *testing.F) {
	// Seeds at per-node widths 63, 64, 65, 128 and 129. TIDs number the
	// whole database, so every node past the first hashes into slots
	// beyond the first mask word.
	for _, s := range []struct {
		width, nodes, txs                  int
		minsup, maxk, part, workers, extra uint8
	}{
		{63, 1, 80, 0, 1, 9, 0, 0},
		{64, 2, 100, 1, 2, 3, 1, 1},
		{65, 3, 120, 0, 0, 39, 3, 2},
		{128, 4, 140, 2, 1, 17, 2, 3},
		{129, 8, 160, 1, 2, 5, 1, 7},
	} {
		f.Add(fuzzCorpus(int64(s.width), s.txs), s.minsup, s.maxk, s.part, s.workers,
			uint8(s.nodes-1), uint8(s.width-1), s.extra)
	}
	f.Fuzz(func(t *testing.T, data []byte, minsup, maxk, part, workers, nodesRaw, widthRaw, extra uint8) {
		if len(data) > fuzzMaxBytes {
			return
		}
		db := fuzzDB(data)
		nodes := 1 + int(nodesRaw)%8
		opts := mining.Options{
			MinSupCount:      2 + int(minsup)%4,
			MaxK:             2 + int(maxk)%3,
			PartitionSize:    1 + int(part)%40,
			IntraNodeWorkers: 1 + int(workers)%4,
			// THTEntries/nodes is the selected width; the remainder
			// below nodes exercises the integer division.
			THTEntries: fuzzWidth(widthRaw)*nodes + int(extra)%nodes,
		}
		want := mining.BruteForce(db, opts)
		seq, err := MineMIHP(db, opts)
		if err != nil {
			t.Fatalf("MIHP: %v", err)
		}
		if ok, diff := mining.SameFrequentSets(want, seq); !ok {
			t.Fatalf("MIHP %+v differs from brute force: %s", opts, diff)
		}
		par, err := MinePMIHP(db, PMIHPConfig{Nodes: nodes}, opts)
		if err != nil {
			t.Fatalf("PMIHP on %d nodes: %v", nodes, err)
		}
		if ok, diff := mining.SameFrequentSets(want, par.Result); !ok {
			t.Fatalf("PMIHP on %d nodes %+v differs from brute force: %s", nodes, opts, diff)
		}
	})
}
