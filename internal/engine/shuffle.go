package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// errShuffleCanceled marks a task that was aborted because a sibling task in
// the same shuffle failed first. It is never returned to callers: the root
// cause is.
var errShuffleCanceled = errors.New("engine: shuffle canceled by sibling task failure")

// shuffleCore is the wide-operation executor shared by every shuffle-shaped
// op (PartitionBy, Repartition, CombineByKey). It is generic over B, the
// decoded form of one map-side bucket, and O, the output item type:
//
//   - mapTask runs once per input partition m and calls emit(r, block) for
//     every non-empty serialized bucket as soon as that bucket is encoded
//     (per-bucket readiness: a long map task streams its buckets out rather
//     than landing them all at task end), charging shuffle-write bytes
//     itself; buckets it never emits are treated as empty;
//   - decode turns one arriving block into a B (called in arrival order);
//   - merge combines the decoded buckets of reduce partition r — indexed by
//     map task, zero values for empty buckets — into the output partition.
//     Merging strictly in map-task order is what keeps the output
//     deterministic whatever order buckets arrived in.
//
// The run is pipelined and push-based: map and reduce tasks share ONE
// worker-pool pass, and reduce task r consumes bucket (m, r) as soon as map
// task m publishes it. It records two StageMetrics rows (name/map,
// name/reduce); inMask/outMask are the planner-resolved edge masks recorded
// on those rows: what map tasks read from their input, and what the wire
// blocks carry to the reduce side. Map task m and reduce task r run on the
// ranks owning partitions m and r (canonical p % procs ownership).
type shuffleCore[B, O any] struct {
	ctx     *Context
	name    string
	in, out int
	inMask  FieldMask
	outMask FieldMask
	mapHint func(m int) int64
	mapTask func(m int, tm *TaskMetrics, emit func(r int, block []byte)) error
	decode  func(r int, block []byte, tm *TaskMetrics) (B, error)
	merge   func(r int, decoded []B, tm *TaskMetrics) ([]O, error)
	res     *Dataset[O]
}

// finishReduce merges the decoded buckets of reduce partition r and stores
// the output. Wall excludes FetchWait so it stays a busy-time measure.
func (sc *shuffleCore[B, O]) finishReduce(r int, decoded []B, tm *TaskMetrics, start time.Time) error {
	out, err := sc.merge(r, decoded, tm)
	if err != nil {
		return err
	}
	tm.OutputItems = len(out)
	if err := storePartition(sc.res, r, out, tm); err != nil {
		return err
	}
	if wall := time.Since(start) - tm.FetchWait; wall > 0 {
		tm.Wall = wall
	}
	return nil
}

// run executes map and reduce tasks in one worker-pool pass.
//
// Protocol: map task m pushes m onto reduce task r's notification channel
// the moment bucket (m, r) is encoded — per-bucket readiness, so a long map
// task streams its buckets out as it goes instead of landing them all at
// task end; buckets the map never emits are published as empty when the
// task completes. The channels are buffered to the map-task count, so
// publishing never blocks. Reduce task r receives map indices in
// publication order, decodes each bucket (m, r) as it arrives —
// overlapping decode with still-running maps — and finally merges the
// decoded buckets in map-task order, which makes the output independent of
// arrival order.
//
// Scheduling: map tasks are dispatched first (largest-first per mapHint),
// reduce tasks after, through one worker-slot semaphore. A reduce task that
// must block on an unpublished bucket RELEASES its worker slot for the
// duration of the wait and re-acquires it when data (or cancellation)
// arrives — a stalled reduce never starves runnable work, so every slot is
// always held by a task making progress. Map tasks never wait on other
// tasks, so the pipeline cannot deadlock: slot-holders run to completion,
// waiters are unblocked by map completions, and re-acquisition only
// competes with other runnable work. (With W=1 reduce tasks effectively
// start after all maps finish — the pipeline degrades to the two-barrier
// schedule but never deadlocks.)
//
// Failure: the first map/reduce error (or panic) closes cancel exactly once;
// every blocked reduce task unblocks through the cancel branch and returns.
// The pass always joins its WaitGroup, so no goroutine outlives the call,
// and the caller discards the result dataset on error — no partial output.
func (sc *shuffleCore[B, O]) run() error {
	in, out := sc.in, sc.out
	ctx := sc.ctx
	procs, rank := ctx.procs(), ctx.rank()
	owned := func(p int) bool { return procs == 1 || p%procs == rank }
	// The exchange is the bucket transport for this stage: in-process it is
	// the shared block table + notify channels; under mproc, publishes to a
	// remote-owned reduce partition leave as bucket frames and arrivals from
	// sibling ranks feed the same notify channels the local path uses.
	ex := ctx.exec.Exchange(ctx.nextSeq(), in, out)
	defer ex.Close()
	mapTMs := make([]TaskMetrics, in)
	redTMs := make([]TaskMetrics, out)
	mapErrs := make([]error, in)
	redErrs := make([]error, out)
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	abort := func() { cancelOnce.Do(func() { close(cancel) }) }
	sem := make(chan struct{}, ctx.workers)

	start := time.Now()
	mapEnd := make([]time.Duration, in)    // offset of map m's publish, from shuffle start
	redStart := make([]time.Duration, out) // offset of reduce r's first instruction

	runMap := func(m int) {
		tm := &mapTMs[m]
		defer func() {
			if p := recover(); p != nil {
				mapErrs[m] = fmt.Errorf("engine: task %d panicked: %v", m, p)
				abort()
			}
		}()
		select {
		case <-cancel:
			mapErrs[m] = errShuffleCanceled
			return
		case <-ex.Failed():
			mapErrs[m] = errShuffleCanceled
			return
		default:
		}
		t0 := time.Now()
		published := make([]bool, out)
		emit := func(r int, block []byte) {
			// Publish stores the block before signaling readiness, so the
			// reduce side's Block read is ordered after the store.
			published[r] = true
			ex.Publish(m, r, block)
		}
		if err := sc.mapTask(m, tm, emit); err != nil {
			// Buckets already emitted stay valid (reduces may have consumed
			// them); the ones never published are covered by cancellation.
			mapErrs[m] = err
			abort()
			return
		}
		tm.Wall = time.Since(t0)
		for r := 0; r < out; r++ {
			if !published[r] {
				ex.Publish(m, r, nil) // empty bucket: publish so reduce r can account for m
			}
		}
		mapEnd[m] = time.Since(start)
	}

	runReduce := func(r int) {
		tm := &redTMs[r]
		defer func() {
			if p := recover(); p != nil {
				redErrs[r] = fmt.Errorf("engine: task %d panicked: %v", r, p)
				abort()
			}
		}()
		redStart[r] = time.Since(start)
		t0 := time.Now()
		decoded := make([]B, in)
		for seen := 0; seen < in; seen++ {
			var m int
			select {
			case m = <-ex.Notify(r):
			default:
				// Nothing published yet: genuine fetch wait, measured only on
				// receives that actually block. Release the worker slot for the
				// duration — a stalled reduce must not starve runnable tasks —
				// and re-acquire before touching the bucket. The re-acquire wait
				// counts as FetchWait too: the task was only queued because it
				// had stalled on data.
				w0 := time.Now()
				<-sem
				var canceled bool
				select {
				case m = <-ex.Notify(r):
				case <-cancel:
					canceled = true
				case <-ex.Failed():
					// A sibling rank failed the job: this bucket is never
					// coming. The stage error surfaces via ex.Err below.
					canceled = true
				}
				sem <- struct{}{}
				tm.FetchWait += time.Since(w0)
				if canceled {
					redErrs[r] = errShuffleCanceled
					return
				}
			}
			block := ex.Block(m, r)
			if block == nil {
				continue
			}
			tm.ShuffleReadBytes += int64(len(block))
			b, err := sc.decode(r, block, tm)
			if err != nil {
				redErrs[r] = err
				abort()
				return
			}
			decoded[m] = b
		}
		if err := sc.finishReduce(r, decoded, tm, t0); err != nil {
			redErrs[r] = err
			abort()
		}
	}

	var wg sync.WaitGroup
	launch := func(fn func()) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn()
		}()
	}
	gc, _ := gcPauseDelta(func() error {
		for _, m := range lptOrder(in, sc.mapHint) {
			m := m
			mapTMs[m].Partition = m
			if !owned(m) {
				continue
			}
			if procs > 1 {
				mapTMs[m].Ran = true
				mapTMs[m].Rank = rank
			}
			launch(func() { runMap(m) })
		}
		for r := 0; r < out; r++ {
			r := r
			redTMs[r].Partition = r
			if !owned(r) {
				continue
			}
			if procs > 1 {
				redTMs[r].Ran = true
				redTMs[r].Rank = rank
			}
			launch(func() { runReduce(r) })
		}
		wg.Wait()
		return nil
	})

	// PipelineOverlap: the span during which reduce tasks were already
	// running while map tasks were still publishing.
	var lastMap time.Duration
	for _, e := range mapEnd {
		if e > lastMap {
			lastMap = e
		}
	}
	firstRed := time.Duration(-1)
	for _, s := range redStart {
		if s > 0 && (firstRed < 0 || s < firstRed) {
			firstRed = s
		}
	}
	var overlap time.Duration
	if firstRed >= 0 && lastMap > firstRed {
		overlap = lastMap - firstRed
	}

	sc.ctx.recordStage(StageMetrics{Name: sc.name + "/map", Kind: StageShuffle, Tasks: mapTMs, GCPause: gc, InMask: sc.inMask, OutMask: sc.outMask})
	sc.ctx.recordStage(StageMetrics{Name: sc.name + "/reduce", Kind: StageShuffle, Tasks: redTMs, PipelineOverlap: overlap, InMask: sc.outMask, OutMask: sc.outMask})

	for _, err := range mapErrs {
		if err != nil && !errors.Is(err, errShuffleCanceled) {
			return err
		}
	}
	for _, err := range redErrs {
		if err != nil && !errors.Is(err, errShuffleCanceled) {
			return err
		}
	}
	// No local root cause: a sibling rank may have failed the job (its error
	// arrived as a control frame and unblocked our reduces via Failed).
	if err := ex.Err(); err != nil {
		return fmt.Errorf("engine: stage %q: %w", sc.name, err)
	}
	for _, errs := range [][]error{mapErrs, redErrs} {
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("engine: stage %q: %w", sc.name, err)
			}
		}
	}
	return nil
}

// shuffle is the wide-operation core for key-routed item movement: route
// decides the destination partition of each item from (map partition, item
// index, item), map tasks bucket and serialize, reduce tasks decode arriving
// buckets and concatenate them in map-task order.
//
// Shuffles are DEFERRED: the call records the op and returns a pending
// dataset; the shuffle executes when a downstream barrier forces it, so the
// projection planner knows how many columns the consumers actually need and
// the map side encodes only those into its buckets (fx declares what route
// itself reads; undeclared, the buckets carry whole records).
func shuffle[T any](name string, d *Dataset[T], numPartitions int, route func(p, idx int, item T) int, fx fieldFX) (*Dataset[T], error) {
	if numPartitions < 1 {
		return nil, fmt.Errorf("engine: stage %q: numPartitions must be positive", name)
	}
	claimInput(d)
	res := &Dataset[T]{ctx: d.ctx, codec: d.codec, pendingParts: numPartitions}
	m := &planMeta{wide: true, inputs: []planInput{inputEdge(d, fx)}}
	m.run = func(need FieldMask) error {
		return runShuffle(name, d, res, numPartitions, route, fx, need)
	}
	res.meta = m
	return res, nil
}

// runShuffle executes one key-routed shuffle into res with the resolved
// downstream demand need: the input is forced (its own planning session, a
// no-op when the outer session already materialized it), map tasks read
// their partitions under fx.inNeed(need) — route's fields plus whatever the
// consumers demand — and buckets are encoded through Project(need), so wire
// blocks carry only the demanded columns. res stores the same projected
// blocks and remembers the narrowing in content.
func runShuffle[T any](name string, d *Dataset[T], res *Dataset[T], numPartitions int, route func(p, idx int, item T) int, fx fieldFX, need FieldMask) error {
	if err := d.Force(); err != nil {
		return err
	}
	mapNeed := fx.inNeed(need)
	codec := effectiveSerializer(d.codec)
	if need != FieldsAll {
		if pc, ok := codec.(ProjectableSerializer[T]); ok {
			codec = pc.Project(need)
		}
	}
	allocResult(res, numPartitions, need)
	in := d.NumPartitions()
	sc := &shuffleCore[[]T, T]{
		ctx:     d.ctx,
		name:    name,
		in:      in,
		out:     numPartitions,
		inMask:  mapNeed,
		outMask: need,
		mapHint: d.partitionSizeHint,
		res:     res,
		mapTask: func(p int, tm *TaskMetrics, emit func(r int, block []byte)) error {
			items, err := d.partitionNeed(p, tm, mapNeed)
			if err != nil {
				return err
			}
			tm.InputItems = len(items)
			local := make([][]T, numPartitions)
			for idx, it := range items {
				k := route(p, idx, it) % numPartitions
				if k < 0 {
					k += numPartitions
				}
				local[k] = append(local[k], it)
			}
			serStart := time.Now()
			for r, bucket := range local {
				if len(bucket) == 0 {
					continue
				}
				block, err := codec.Marshal(bucket)
				if err != nil {
					return fmt.Errorf("engine: stage %q map %d: %w", name, p, err)
				}
				tm.ShuffleWriteBytes += int64(len(block))
				emit(r, block) // pushed the moment it is encoded
			}
			tm.SerializeTime += time.Since(serStart)
			tm.OutputItems = len(items)
			return nil
		},
		decode: func(r int, block []byte, tm *TaskMetrics) ([]T, error) {
			serStart := time.Now()
			items, err := unmarshalCharged(codec, block, tm)
			tm.SerializeTime += time.Since(serStart)
			if err != nil {
				return nil, fmt.Errorf("engine: stage %q reduce %d: %w", name, r, err)
			}
			return items, nil
		},
		merge: func(_ int, decoded [][]T, _ *TaskMetrics) ([]T, error) {
			// Pre-size from decoded bucket lengths: one allocation instead of
			// append-doubling across in buckets.
			total := 0
			for _, chunk := range decoded {
				total += len(chunk)
			}
			out := make([]T, 0, total)
			for _, chunk := range decoded {
				out = append(out, chunk...)
			}
			return out, nil
		},
	}
	return sc.run()
}

// PartitionBy is the wide operation: items are routed to the output
// partition returned by key (reduced modulo numPartitions). The map side
// serializes each bucket through the dataset's codec, charging shuffle-write
// bytes to map tasks; the reduce side decodes its buckets, charging
// shuffle-read bytes. This mirrors Spark's hash shuffle, where shuffle data
// is always serialized (and spilled to disk) even for in-memory datasets —
// the behaviour §5.3.1 measures. Declare the fields key reads via opts
// (e.g. ReadsOnly(colfmt.FieldCoord)) so the planner can prune bucket
// columns down to key's reads plus the downstream demand.
func PartitionBy[T any](name string, d *Dataset[T], numPartitions int, key func(T) int, opts ...StageOption) (*Dataset[T], error) {
	return shuffle(name, d, numPartitions, func(_, _ int, it T) int { return key(it) }, resolveFX(true, opts))
}

// Repartition rebalances items round-robin into numPartitions (a shuffle
// without a semantic key). The destination is derived from the item's index
// within its source partition (offset by the partition id so co-sized inputs
// don't all start at bucket 0) — a pure function of (p, idx), so concurrent
// map tasks share no counter state and the router reads NO record fields:
// its declared effects are empty, and downstream demand passes through to
// the wire mask untouched.
func Repartition[T any](name string, d *Dataset[T], numPartitions int) (*Dataset[T], error) {
	return shuffle(name, d, numPartitions, func(p, idx int, _ T) int { return p + idx }, fieldFX{declared: true})
}

// SortPartitions sorts every partition in place by less — used after a
// PartitionBy keyed on genomic position to produce coordinate-sorted
// partitions (the Cleaner's sort step). Sorting needs the whole partition
// resident, so it is a barrier: the pending chain is forced and the sort runs
// as its own eager stage. opts declare the fields less reads; the output is
// a permutation of the input, so the declaration only narrows the eager
// stage's own read when the input is already column-pruned.
func SortPartitions[T any](name string, d *Dataset[T], less func(a, b T) bool, opts ...StageOption) (*Dataset[T], error) {
	return runNarrow(name, d, d.codec, resolveFX(true, opts), func(_ int, items []T) ([]T, error) {
		out := append([]T(nil), items...)
		sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out, nil
	})
}
