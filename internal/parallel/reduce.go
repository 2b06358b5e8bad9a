package parallel

import "edgehd/internal/hdc"

// SumAccs reduces per-chunk partial accumulators into one total by an
// ordered pairwise tree reduction: at every level, part 2i absorbs part
// 2i+1, and an odd tail part survives to the next level unchanged. The
// tree's shape depends only on len(parts), and every pair is combined
// left-into-right, so the reduction order is fixed regardless of worker
// count. Integer addition commutes bitwise, making the result equal to
// the sequential left-to-right sum; the tree exists purely so the
// O(log n) levels can each fan out over the pool.
//
// SumAccs consumes parts: the left operand of every pair is mutated in
// place and parts[0] becomes (and is returned as) the total. Callers
// own the partials, so no defensive copy is made. An empty parts slice
// returns a zero accumulator.
func (p *Pool) SumAccs(stage string, parts []hdc.Acc) hdc.Acc {
	if len(parts) == 0 {
		return hdc.Acc{}
	}
	cur := parts
	// combine is allocated once and closes over cur by reference, so the
	// same func value serves every level; Run is a full barrier, so the
	// reassignment of cur below never races with workers reading it.
	combine := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cur[2*i].AddAcc(cur[2*i+1])
		}
	}
	for len(cur) > 1 {
		pairs := len(cur) / 2
		p.Run(stage, pairs, combine)
		next := make([]hdc.Acc, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			next = append(next, cur[i])
		}
		cur = next
	}
	return cur[0]
}
