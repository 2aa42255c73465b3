package engine

import "sort"

// Plain-Go reference implementations the engine's wide operations are
// property-tested against. They run serially on in-memory slices with no
// scheduling, no codec and no planner, so any divergence is the engine's.

// bucketOf reduces a routing key to a reduce partition the way the engine
// does: modulo n, folded into [0, n).
func bucketOf(k, n int) int {
	r := k % n
	if r < 0 {
		r += n
	}
	return r
}

// barrierShuffle is the two-barrier hash shuffle: every map partition is
// bucketed first, then each reduce partition concatenates its buckets in
// map-partition order. The pipelined shuffle must reproduce it exactly,
// whatever order its buckets arrive in.
func barrierShuffle[T any](parts [][]T, n int, key func(T) int) [][]T {
	out := make([][]T, n)
	for r := range out {
		out[r] = []T{}
	}
	for _, part := range parts {
		for _, it := range part {
			r := bucketOf(key(it), n)
			out[r] = append(out[r], it)
		}
	}
	return out
}

// uncombinedByKey is CombineByKey without map-side combine: every item ships
// as its own create(item) value and each reduce partition folds the values
// with mergeCombiners in map order, emitting its keys sorted ascending.
func uncombinedByKey[T, C any](parts [][]T, n int, key func(T) int, create func(T) C, mergeCombiners func(C, C) C) [][]Keyed[C] {
	acc := make([]map[int]C, n)
	for r := range acc {
		acc[r] = map[int]C{}
	}
	for _, part := range parts {
		for _, it := range part {
			k := key(it)
			m := acc[bucketOf(k, n)]
			if c, ok := m[k]; ok {
				m[k] = mergeCombiners(c, create(it))
			} else {
				m[k] = create(it)
			}
		}
	}
	out := make([][]Keyed[C], n)
	for r, m := range acc {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		out[r] = make([]Keyed[C], len(keys))
		for i, k := range keys {
			out[r][i] = Keyed[C]{Key: k, Val: m[k]}
		}
	}
	return out
}
