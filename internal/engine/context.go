// Package engine implements the in-memory dataflow engine underneath GPF —
// the stand-in for Apache Spark in this reproduction. Datasets are split into
// partitions processed by a worker pool.
//
// Execution follows the paper's lazy lineage DAG (§4.3): narrow operations
// (Map, Filter, FlatMap, MapPartitions, ZipPartitions) do not run when
// called — they record a lineage node, and the planner fuses each maximal
// chain of narrow ops into ONE task launch per partition when a barrier
// forces the plan. Barriers are the actions (Collect, Reduce, Count,
// CountByKey), the wide operations (PartitionBy, Repartition, CombineByKey)
// and SortPartitions. Within a fused stage, items flow through the composed
// closures with no intermediate partition storage and no intermediate codec
// round-trip; the stage is recorded in metrics under the joined op names
// (e.g. "align/bwa-mem+filter") with StageMetrics.FusedOps set to the chain
// length. A caller that wants one stage per op calls Force after each op.
//
// Wide operations are deferred until a downstream barrier forces them, so
// the projection planner (planner.go) can resolve how many record fields
// every edge must carry from the ops' declared field effects; an op that
// declares nothing reads every field. They move data through a pipelined
// push-based hash shuffle (see shuffle.go): map and reduce tasks share one
// worker-pool pass, each reduce task consuming bucket (m, r) as soon as map
// task m publishes it, with output kept deterministic by merging buckets in
// map-task order. Shuffle byte volume is charged through a pluggable
// serializer; actions return data to the driver. Per-task and per-stage
// metrics (wall time, shuffle bytes, serialization time, fetch wait, GC
// pauses) feed the cluster simulator and the blocked-time analysis of §5.3.
//
// Context.StoreSerialized is the one execution switch: the §4.2 serializer
// tiers (Fig 11) are chosen by the codec a dataset carries.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Serializer turns a batch of records into one byte block and back. It is the
// engine's equivalent of a Spark serializer; the compress package provides
// genomic-aware implementations, and gobSerializer is the built-in generic
// fallback (the "Java serialization" tier).
type Serializer[T any] interface {
	Name() string
	Marshal([]T) ([]byte, error)
	Unmarshal([]byte) ([]T, error)
}

// Context owns the worker pool and the metrics of one engine session. The
// zero value is not usable; create one with NewContext.
type Context struct {
	workers int
	exec    Executor

	// seq numbers the collective operations (shuffle exchanges, action
	// gathers) issued by this context. Under an SPMD executor every rank runs
	// the same deterministic driver program, so equal sequence numbers across
	// ranks identify the same collective — that is how bucket and gather
	// frames find their stage without a global scheduler.
	seq atomic.Uint64

	// StoreSerialized keeps dataset partitions as serialized byte blocks
	// whenever a codec is attached — Spark's MEMORY_ONLY_SER mode that GPF
	// relies on (§4.2). Off by default.
	StoreSerialized bool

	mu      sync.Mutex
	metrics Metrics
}

// NewContext creates an engine context with the given worker parallelism
// (the local stand-in for cluster cores). workers < 1 selects GOMAXPROCS.
func NewContext(workers int) *Context {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Context{workers: workers, exec: &localExec{slots: workers}}
}

// NewContextOn creates a context running on the given executor backend. The
// task-slot parallelism is the executor's Slots (GOMAXPROCS when it reports
// < 1).
func NewContextOn(exec Executor) *Context {
	workers := exec.Slots()
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Context{workers: workers, exec: exec}
}

// Workers returns the configured task-slot parallelism of this process.
func (c *Context) Workers() int { return c.workers }

// Executor returns the execution backend.
func (c *Context) Executor() Executor { return c.exec }

// procs is the number of cooperating SPMD processes; 1 for in-process runs.
func (c *Context) procs() int { return c.exec.Procs() }

// rank is this process's index in [0, procs).
func (c *Context) rank() int { return c.exec.Rank() }

// nextSeq issues the next collective sequence number. Collectives are driven
// serially by the (deterministic) driver program, so every rank observes the
// same numbering.
func (c *Context) nextSeq() uint64 { return c.seq.Add(1) }

// Metrics returns a snapshot of the accumulated metrics.
func (c *Context) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics.clone()
}

// ResetMetrics clears accumulated metrics (between experiments).
func (c *Context) ResetMetrics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = Metrics{}
}

// recordStage appends a finished stage to the metrics.
func (c *Context) recordStage(s StageMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.ID = len(c.metrics.Stages)
	c.metrics.Stages = append(c.metrics.Stages, s)
}

// lptOrder returns the dispatch order for n tasks under longest-processing-
// time-first scheduling: indices sorted by descending size hint, stable so
// equal-sized tasks keep index order (deterministic dispatch). A nil hint
// yields plain index order.
func lptOrder(n int, hint func(task int) int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if hint == nil {
		return order
	}
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = hint(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	return order
}

// runTasksOwned executes fn for every task index in [0, n) that this rank
// owns, collecting per-task metrics; the first error (or recovered panic)
// aborts the run and is returned. Under an SPMD executor with procs > 1,
// task t is owned by rank t % procs (the canonical partition ownership) and
// the sibling ranks run the rest. Non-owned entries in the returned metrics
// stay zero with Ran false, so a later cross-rank merge (Metrics.MergeRanks)
// can splice each task's record from the rank that actually ran it.
//
// Dispatch is size-aware: tasks are handed to the worker pool largest-first
// per hint (LPT scheduling), shrinking the straggler tail on skewed
// partitions — the engine-level counterpart of the coverage-skew motivation
// behind dynamic repartitioning (§4.4). Only the dispatch order changes:
// results and metrics stay indexed by task, so the output is identical
// whatever the hints say.
func (c *Context) runTasksOwned(n int, hint func(task int) int64, fn func(task int, tm *TaskMetrics) error) ([]TaskMetrics, error) {
	procs, rank := c.procs(), c.rank()
	owned := func(task int) bool { return procs == 1 || task%procs == rank }
	tms := make([]TaskMetrics, n)
	errs := make([]error, n)
	sem := make(chan struct{}, c.workers)
	var wg sync.WaitGroup
	for _, i := range lptOrder(n, hint) {
		tms[i].Partition = i
		if !owned(i) {
			continue
		}
		if procs > 1 {
			tms[i].Ran = true
			tms[i].Rank = rank
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(task int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[task] = fmt.Errorf("engine: task %d panicked: %v", task, r)
				}
			}()
			errs[task] = fn(task, &tms[task])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return tms, err
		}
	}
	return tms, nil
}
