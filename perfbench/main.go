// Command perfbench is the repository benchmark: the paper's FASTQ/SAM→VCF
// pipeline measured end to end and layer by layer on three workloads.
//
//	perfbench --workload wgs --seed 42 --seconds 20 --trace 0
//	perfbench compare a.json b.json
//
// Every workload is a closed loop from one benchmark process: one pipeline at a
// time, the next starting when the previous VCF is written. Each input has
// the shape of experiments.SmallScale(); a run synthesizes a batch of them
// from --seed and cycles through it. An untraced run prints the end-to-end
// metrics; a traced run (--trace 1) prints the per-layer metrics and writes
// a Chrome trace. The last stdout line is the result JSON; the full result
// with its machine block and per-Process ledger is written under
// .bench_build/results, the trace under .bench_build/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/experiments"
)

// workloadSpec is one benchmark workload. All three share one input, so
// their VCFs must be byte-identical.
type workloadSpec struct {
	name string
	// procs × slots is the execution geometry; every workload uses the
	// container's two cores.
	procs, slots int
	// cleanCall starts from the aligner's records instead of FASTQ pairs.
	cleanCall bool
	// inputs is the batch size: a run synthesizes this many inputs from its
	// seed and cycles the pipeline through them, because one 30 kb genome's
	// run time and accuracy swing with the seed. On wgs the aligner, steady
	// across inputs, dilutes the swing; clean-call's time is mostly the
	// caller's hotspot partitions, which vary about ±25% from input to
	// input, so it takes a larger batch (paid in setup alignment).
	inputs int
}

var workloads = []workloadSpec{
	{name: "wgs", procs: 1, slots: 2, inputs: 6},
	{name: "clean-call", procs: 1, slots: 2, cleanCall: true, inputs: 20},
	{name: "wgs-mproc", procs: 2, slots: 1, inputs: 6},
}

// scoredInputs is how many leading inputs of a batch the accuracy metrics
// pool. Every workload runs them, so at one seed all workloads score the
// same VCFs and must print the same accuracy.
const scoredInputs = 6

// posTolerance is the vcf.Compare position slack, in bases, for matching a
// call to a truth variant.
const posTolerance = 5

// Units of every metric the benchmark can print. BENCHMARK.json names the
// same metrics with the same units; the smoke test holds the two together.
var units = map[string]string{
	"wall_s": "s", "setup_s": "s", "alloc_mb": "MB", "peak_rss_mb": "MB",
	"snv_precision": "fraction", "snv_recall": "fraction",

	"input.generate_s": "s", "align.index_build_s": "s",
	"align.task_s": "s", "align.max_task_s": "s", "align.us_per_pair": "us", "align.mapped_frac": "fraction",
	"cleaner.markdup_s": "s", "cleaner.realign_s": "s", "cleaner.bqsr_s": "s", "cleaner.dup_frac": "fraction",
	"caller.hc_s": "s", "caller.calls": "count",
	"caller.indel_precision": "fraction", "caller.indel_recall": "fraction",
	"core.repartition_s": "s", "core.genomic_partitions": "count", "core.partition_skew": "ratio",
	"engine.stages": "count", "engine.tasks": "count", "engine.fused_ops": "count",
	"engine.task_s": "s", "engine.slot_idle_s": "s", "engine.codec_s": "s",
	"engine.shuffle_write_mb": "MB", "engine.decoded_mb": "MB", "engine.pruning_ratio": "fraction",
	"engine.driver_s": "s", "engine.gc_pause_s": "s",
	"engine.fetch_wait_s": "s", "engine.pipeline_overlap_s": "s",
	"mproc.startup_s": "s", "mproc.job_s": "s",
	"vcf.collect_s": "s", "vcf.write_s": "s", "runtime.gc_cycles": "count", "trace.overhead_s": "s",
}

var endToEnd = []string{"wall_s", "setup_s", "alloc_mb", "peak_rss_mb", "snv_precision", "snv_recall"}

func main() {
	// A re-exec'd mproc worker never returns from here.
	mproc.WorkerMaybe()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compareFiles(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		return 0
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := run(cfg, stderr)
	if err == nil {
		err = report(stdout, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints a result: the per-Process ledger of a traced run, any
// problems, the machine block, and last the result JSON line.
func report(w io.Writer, res *result) error {
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	for _, r := range res.Ledger {
		fmt.Fprintf(w, "ledger %-18s task %8.3fs  max task %7.3fs  codec %7.3fs  fetch wait %7.3fs  driver %7.3fs  stages %s\n",
			r.Process, r.TaskTime.Seconds(), r.MaxTask.Seconds(), r.Codec.Seconds(), r.FetchWait.Seconds(),
			r.Driver.Seconds(), strings.Join(r.Stages, ", "))
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "problem", p)
	}
	fmt.Fprintf(w, "machine %s\n", mustJSON(res.Machine))
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

type config struct {
	workload workloadSpec
	scale    experiments.Scale
	seconds  float64
	trace    bool
	// stateDir holds results, traces and the digest record; root is the
	// repository whose sources name the code measured.
	stateDir string
	root     string
	// inputs is the batch size (workloadSpec.inputs unless a test shrinks it).
	inputs int
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "wgs", "workload: wgs | clean-call | wgs-mproc")
	seed := fs.Int64("seed", 42, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics and writes a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	for _, w := range workloads {
		if w.name == *name {
			scale := experiments.SmallScale()
			scale.Seed = *seed
			scale.Workers = w.slots
			return config{
				workload: w, scale: scale, seconds: *seconds, trace: *trace == 1,
				stateDir: ".bench_build", root: ".", inputs: w.inputs,
			}, nil
		}
	}
	return config{}, fmt.Errorf("unknown workload %q", *name)
}
