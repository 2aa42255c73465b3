package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareFiles prints two results' metrics side by side. Results measured
// on different machines, or of different workloads, are an error rather
// than a comparison.
func compareFiles(paths []string, w io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("usage: perfbench compare <base.json> <new.json>")
	}
	var rs [2]result
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := &rs[0], &rs[1]
	if !a.Machine.comparable(b.Machine) {
		return fmt.Errorf("machine blocks differ:\n  %s\n  %s", mustJSON(a.Machine), mustJSON(b.Machine))
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	}
	fmt.Fprintf(w, "%s: %s/%s (seed %d) -> %s/%s (seed %d)\n", a.Workload,
		a.Machine.Commit, a.Machine.Source, a.Seed, b.Machine.Commit, b.Machine.Source, b.Seed)
	var names []string
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		change := "n/a"
		if x != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y-x)/x)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %-9s %s\n", k, x, y, units[k], change)
	}
	return nil
}
