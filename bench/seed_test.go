package main

import (
	"testing"
	"time"
)

// inputsHash fingerprints everything a served-paced run generates from
// its seed: the query order and both connections' arrival schedules.
func inputsHash(seed uint64) uint64 {
	return sequenceHash(queryOrder(seed, 4096),
		poissonSchedule(seed, "0", pacedRate/2, 2*time.Second),
		poissonSchedule(seed, "1", pacedRate/2, 2*time.Second))
}

func TestSeedFixesTheGeneratedInputs(t *testing.T) {
	if inputsHash(7) != inputsHash(7) {
		t.Fatal("the same seed generated different inputs")
	}
	if inputsHash(7) == inputsHash(8) {
		t.Fatal("different seeds generated identical inputs")
	}
	// The connections of one run draw from separate streams.
	a := poissonSchedule(7, "0", 1000, time.Second)
	b := poissonSchedule(7, "1", 1000, time.Second)
	if sequenceHash(nil, a) == sequenceHash(nil, b) {
		t.Fatal("two connections share one arrival schedule")
	}
}

func TestPoissonScheduleShape(t *testing.T) {
	const rate, dur = 1000.0, 4 * time.Second
	sched := poissonSchedule(3, "0", rate, dur)
	// 4000 expected arrivals, standard deviation ~63.
	if n := len(sched); n < 3700 || n > 4300 {
		t.Fatalf("%d arrivals in %v at %v/s", n, dur, rate)
	}
	for i, at := range sched {
		if at < 0 || at >= dur || (i > 0 && at < sched[i-1]) {
			t.Fatalf("arrival %d at %v breaks the schedule's order or span", i, at)
		}
	}
}

func TestQueryOrderIsAPermutation(t *testing.T) {
	seen := make(map[int]bool)
	for _, row := range queryOrder(5, 1000) {
		if row < 0 || row >= 1000 || seen[row] {
			t.Fatalf("row %d repeated or out of range", row)
		}
		seen[row] = true
	}
}
