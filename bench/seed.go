package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"edgehd/internal/rng"
)

// worldSeed fixes the system under test — datasets, encoders, hierarchy
// structure, and so the trained models — across runs. A run's --seed
// draws the inputs the system receives: which queries in which order,
// when they arrive, and the order of the training rows. Were the models
// drawn from --seed too, one seed's hierarchy would escalate 1.2 times a
// query and another's 1.7, and no bound under 25% could tell a
// regression from a reseed.
const worldSeed = 0xed9e4d

// subSeed derives an independent seed for one named random stream of a
// run, so adding a stream never shifts the draws of another.
func subSeed(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(stream))
	return h.Sum64()
}

// queryOrder is the order in which a run visits the n rows of its query
// pool: a seeded permutation, walked cyclically by every caller from its
// own offset.
func queryOrder(seed uint64, n int) []int {
	return rng.New(subSeed(seed, "query-order")).Perm(n)
}

// poissonSchedule returns the intended send times, as offsets from the
// start of the phase, of a Poisson arrival process of the given rate
// that lasts dur. stream separates the connections of one run.
func poissonSchedule(seed uint64, stream string, rate float64, dur time.Duration) []time.Duration {
	r := rng.New(subSeed(seed, "arrivals-"+stream))
	var sched []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return sched
		}
		sched = append(sched, at)
	}
}

// sequenceHash fingerprints the generated inputs of a run — the query
// order and the arrival schedules — so tests can show that a seed fixes
// them and that another seed changes them.
func sequenceHash(order []int, scheds ...[]time.Duration) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range order {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, s := range scheds {
		for _, at := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(at))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
