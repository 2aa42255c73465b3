// Package gpf_bench holds the benchmark harness regenerating the paper's
// evaluation: one testing.B benchmark per table and figure of §5. Each
// benchmark runs the corresponding experiment at the small scale and reports
// the headline quantity the paper's artifact reports, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. The gpf-bench command prints the full rows.
package gpf_bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gpf-go/gpf/internal/baseline"
	"github.com/gpf-go/gpf/internal/cluster"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/experiments"
	"github.com/gpf-go/gpf/internal/workload"
)

func scale() experiments.Scale { return experiments.SmallScale() }

// BenchmarkTable1 regenerates Table 1: the I/O share of the file-handoff
// pipeline at 1 versus 30 concurrent samples on Lustre and NFS.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(scale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Samples == 30 && r.Filesystem == "NFS" {
				b.ReportMetric(r.IOPercent, "NFS30-io-%")
			}
			if r.Samples == 1 && r.Filesystem == "Lustre" {
				b.ReportMetric(r.IOPercent, "Lustre1-io-%")
			}
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: the concentration of adjacent
// quality-score deltas that motivates the delta+Huffman codec.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.DeltaConcentration(0), "delta<=10-%")
	}
}

// BenchmarkTable3 regenerates Table 3: per-stage genomic compression.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Ratio, "fastq-ratio")
		b.ReportMetric(res.Rows[1].Ratio, "sam-ratio")
	}
}

// BenchmarkTable4 regenerates Table 4: the effect of Process-level
// redundancy elimination on stages and shuffle volume.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Optimized.StageNum), "stages-opt")
		b.ReportMetric(float64(res.Redundant.StageNum), "stages-redundant")
		b.ReportMetric(float64(res.Redundant.ShuffleData)/float64(res.Optimized.ShuffleData), "shuffle-reduction-x")
	}
}

// BenchmarkFig10 regenerates Figure 10: GPF versus Churchill scalability.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.GPFEfficiency, "gpf-eff-2048-%")
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.GPFTime.Minutes(), "gpf-2048-min")
	}
}

// BenchmarkFig11 regenerates Figure 11: per-stage comparisons against ADAM,
// GATK4 and Persona plus aligner throughput.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupOverADAM["Mark Duplicate"], "markdup-vs-adam-x")
		b.ReportMetric(res.SpeedupOverGATK4["BQSR"], "bqsr-vs-gatk4-x")
		if len(res.Aligner) > 0 {
			p := res.Aligner[len(res.Aligner)-1]
			b.ReportMetric(p.GPFBWA/p.PersonaRealBWA, "align-vs-persona-x")
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: the blocked-time bounds showing GPF
// is not I/O bound.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MaxDiskImprovement(), "max-disk-gain-%")
	}
}

// BenchmarkFig13 regenerates Figure 13: the CPU-bound utilization profile.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MeanCPUUtil, "mean-cpu-%")
	}
}

// BenchmarkTable5 regenerates Table 5: parallel efficiency across platforms.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(scale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.System == "GPF" {
				b.ReportMetric(100*r.ParallelEfficiency, "gpf-eff-%")
			}
		}
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

func ablate(b *testing.B, opts baseline.WGSOptions) (makespanMin float64, shuffleGB float64) {
	b.Helper()
	run, makespanMin, shuffleGB := ablateRun(b, opts, scale().Workers)
	_ = run
	return makespanMin, shuffleGB
}

// ablateRun is ablate with a worker-count override (the pipelined-shuffle
// ablation needs real concurrency: at Workers=1 map and reduce tasks cannot
// overlap, so FetchWait and PipelineOverlap degenerate to zero) and with the
// raw run returned so callers can report engine-level metrics.
func ablateRun(b *testing.B, opts baseline.WGSOptions, workers int) (*baseline.WGSRun, float64, float64) {
	b.Helper()
	s := scale()
	d := workload.Make(func() workload.Profile {
		p := workload.DefaultProfile(workload.WGS, s.GenomeLen)
		p.Coverage = s.Coverage
		return p
	}(), s.Seed)
	rt := core.NewRuntime(engine.NewContext(workers), d.Ref)
	rt.PartitionLen = s.PartitionLen
	rt.NumPartitions = s.NumPartitions
	rt.Known = d.Known
	run, err := baseline.RunWGS(rt, d.Pairs, opts)
	if err != nil {
		b.Fatal(err)
	}
	cpuScale := experiments.PaperBases / float64(d.TotalBases())
	byteScale := experiments.PaperFASTQBytes / float64(d.FASTQBytes())
	tr := cluster.TraceFromMetrics(run.Metrics, cpuScale, byteScale).SplitTasks(256)
	sim := cluster.Simulate(tr, cluster.PaperCluster(), 2048, cluster.SparkOptions())
	return run, sim.Makespan.Minutes(), float64(run.Metrics.TotalShuffleBytes()) * byteScale / 1e9
}

// censusWriteBytes sums shuffle-write bytes over the census stages — the
// quantity the map-side-combine rewrite shrinks.
func censusWriteBytes(m engine.Metrics) int64 {
	var n int64
	for _, s := range m.Stages {
		if strings.Contains(s.Name, "/census") {
			n += s.ShuffleWriteBytes()
		}
	}
	return n
}

// BenchmarkAblationCodecTier compares the three serializer tiers end to end:
// the genomic codec versus the Kryo-like field codec versus generic gob —
// the §4.2 design choice.
func BenchmarkAblationCodecTier(b *testing.B) {
	for _, tier := range []core.CodecTier{core.TierGPF, core.TierField, core.TierGob} {
		b.Run(tier.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := baseline.GPFOptions()
				opts.Codec = tier
				mk, gb := ablate(b, opts)
				b.ReportMetric(mk, "sim-2048-min")
				b.ReportMetric(gb, "shuffle-GB")
			}
		})
	}
}

// BenchmarkAblationFusion flips the Fig 7 redundancy elimination.
func BenchmarkAblationFusion(b *testing.B) {
	for _, fuse := range []bool{true, false} {
		name := "fused"
		if !fuse {
			name = "unfused"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := baseline.GPFOptions()
				opts.Fuse = fuse
				mk, gb := ablate(b, opts)
				b.ReportMetric(mk, "sim-2048-min")
				b.ReportMetric(gb, "shuffle-GB")
			}
		})
	}
}

// BenchmarkAblationPipelinedShuffle runs the WGS workload on a 4-worker pool
// through the pipelined push-based shuffle with map-side combine. Wall time
// per run is the benchmark's own ns/op; the extra metrics report the
// engine's pipeline accounting (FetchWait, PipelineOverlap) and the census
// shuffle-write volume.
func BenchmarkAblationPipelinedShuffle(b *testing.B) {
	// SmallScale pins Workers to 1 for reproducibility of CPU accounting; the
	// pipelined shuffle is about overlap, so it needs a real worker pool.
	const workers = 4
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run, mk, gb := ablateRun(b, baseline.GPFOptions(), workers)
			b.ReportMetric(mk, "sim-2048-min")
			b.ReportMetric(gb, "shuffle-GB")
			b.ReportMetric(float64(run.Metrics.TotalFetchWait().Milliseconds()), "fetchwait-ms")
			b.ReportMetric(float64(run.Metrics.TotalPipelineOverlap().Milliseconds()), "overlap-ms")
			b.ReportMetric(float64(censusWriteBytes(run.Metrics))/1e3, "census-KB")
		}
	})
}

// BenchmarkProjectionPushdown compares columnar partition storage with gob
// storage on a coordinate-only census stage (the repartitioner's
// load-census pattern: it reads RefID/Pos and nothing else). ns/op is the
// census wall time; the extra metrics report the engine's decode accounting —
// the columnar run decodes a fraction of the stored bytes and prunes the
// rest, the gob run decodes everything.
func BenchmarkProjectionPushdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Projection(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Columnar.DecodedBytes)/1e6, "columnar-decoded-MB")
		b.ReportMetric(float64(res.Gob.DecodedBytes)/1e6, "gob-decoded-MB")
		b.ReportMetric(100*res.Columnar.PruningRatio, "pruned-%")
		b.ReportMetric(100*res.DecodeReduction(), "decode-reduction-%")
		b.ReportMetric(float64(res.Columnar.Wall.Milliseconds()), "columnar-census-ms")
		b.ReportMetric(float64(res.Gob.Wall.Milliseconds()), "gob-census-ms")
	}
}

// BenchmarkProjectionPlanner runs the planner comparison (declared effects
// versus the same ops undeclared) on a census plus a coordinate repartition.
// The headline metrics are the shuffle wire bytes: with declarations the
// planner propagates the downstream Rebuilds demand backwards through the
// shuffle, so its map tasks encode two columns where the undeclared plan
// puts whole records on the wire. The run fails outright if the planner does
// not shuffle strictly fewer encoded bytes.
func BenchmarkProjectionPlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ProjectionPlanner(scale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Planner.WireBytes)/1e6, "planner-wire-MB")
		b.ReportMetric(float64(res.Undeclared.WireBytes)/1e6, "undeclared-wire-MB")
		b.ReportMetric(100*res.WireReduction(), "wire-reduction-%")
		b.ReportMetric(float64(res.Planner.CensusDecoded)/1e6, "planner-decoded-MB")
		b.ReportMetric(float64(res.Undeclared.CensusDecoded)/1e6, "undeclared-decoded-MB")
		b.ReportMetric(100*res.DecodeReduction(), "decode-reduction-%")
	}
}

// blockIOCodec is a string codec charging a size-proportional latency on
// both sides, modeling the disk/network transfer a shuffle block pays in a
// real deployment (Spark's shuffle always spills serialized blocks; see
// cluster.SparkOptions — perByte here plays the shared-FS bandwidth of
// Table 1). The latency is time.Sleep, not CPU, so it exposes exactly what
// push-based pipelining buys: work scheduled into wait time.
type blockIOCodec struct{ perByte time.Duration }

func (blockIOCodec) Name() string { return "block-io" }

func (c blockIOCodec) Marshal(items []string) ([]byte, error) {
	var buf bytes.Buffer
	for _, s := range items {
		fmt.Fprintf(&buf, "%d:", len(s))
		buf.WriteString(s)
	}
	time.Sleep(time.Duration(buf.Len()) * c.perByte)
	return buf.Bytes(), nil
}

func (c blockIOCodec) Unmarshal(block []byte) ([]string, error) {
	time.Sleep(time.Duration(len(block)) * c.perByte)
	var out []string
	for len(block) > 0 {
		sep := bytes.IndexByte(block, ':')
		if sep < 0 {
			return nil, fmt.Errorf("block-io: missing length separator")
		}
		n, err := strconv.Atoi(string(block[:sep]))
		if err != nil || len(block) < sep+1+n {
			return nil, fmt.Errorf("block-io: corrupt frame")
		}
		out = append(out, string(block[sep+1:sep+1+n]))
		block = block[sep+1+n:]
	}
	return out, nil
}

// BenchmarkShuffleMicro isolates the shuffle itself (the WGS benchmark above
// is dominated by aligner CPU, burying shuffle effects in run noise): a
// skewed dataset — one straggler map partition holding as much data as all
// the others combined — shuffled through a codec that charges a per-block
// I/O latency. The pipelined execution decodes the already-pushed buckets
// during the straggler's in-flight blocks, so the fetch latency is hidden
// under map execution.
func BenchmarkShuffleMicro(b *testing.B) {
	const (
		workers    = 4
		small      = 7
		perSmall   = 400
		stragglerX = 10
		reduces    = 8
	)
	parts := make([][]string, small+1)
	next := 0
	fill := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = strings.Repeat("r", 200) + strconv.Itoa(next)
			next++
		}
		return out
	}
	for i := 0; i < small; i++ {
		parts[i] = fill(perSmall)
	}
	parts[small] = fill(stragglerX * perSmall)
	route := func(v string) int {
		h := 0
		for i := 0; i < len(v); i++ {
			h = h*31 + int(v[i])
		}
		return h
	}
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := engine.NewContext(workers)
			d := engine.WithCodec(engine.FromPartitions(ctx, parts), blockIOCodec{perByte: 120 * time.Nanosecond})
			out, err := engine.PartitionBy("micro", d, reduces, route)
			if err != nil {
				b.Fatal(err)
			}
			if n, err := engine.Count("n", out); err != nil || n != (small+stragglerX)*perSmall {
				b.Fatalf("count %d err %v", n, err)
			}
			b.ReportMetric(float64(ctx.Metrics().TotalFetchWait().Milliseconds()), "fetchwait-ms")
			b.ReportMetric(float64(ctx.Metrics().TotalPipelineOverlap().Milliseconds()), "overlap-ms")
		}
	})
}

// BenchmarkAblationDynamicRepartition flips §4.4's load balancing: without
// it, coverage hotspots stay in single partitions and the simulated
// straggler tail grows.
func BenchmarkAblationDynamicRepartition(b *testing.B) {
	for _, dyn := range []bool{true, false} {
		name := "dynamic"
		if !dyn {
			name = "static"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := baseline.GPFOptions()
				opts.DynamicRepartition = dyn
				mk, _ := ablate(b, opts)
				b.ReportMetric(mk, "sim-2048-min")
			}
		})
	}
}
