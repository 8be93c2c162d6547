package core

import "testing"

func TestResumeCountsValidates(t *testing.T) {
	got, err := countsFromWire([]uint32{3, 0, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 0 || got[2] != 7 {
		t.Fatalf("got %v", got)
	}
	if _, err := countsFromWire([]uint32{1}, 2); err == nil {
		t.Fatal("want error for width mismatch")
	}
}
