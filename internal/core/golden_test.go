package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/vcf"
	"github.com/gpf-go/gpf/internal/workload"
)

// goldenOutputs runs the Fig 3 WGS pipeline on the experiments' SmallScale
// dataset (30 kb WGS profile, 8x coverage, 4 read partitions, 5 kb genomic
// partitions) for the given seed and worker count and returns the
// SHA-256 of the written VCF and of the final (recalibrated) records as a
// coordinate-sorted SAM.
func goldenOutputs(t *testing.T, seed int64, workers int) (vcfSum, samSum string) {
	t.Helper()
	p := workload.DefaultProfile(workload.WGS, 30000)
	p.Coverage = 8
	d := workload.Make(p, seed)
	rt := NewRuntime(engine.NewContext(workers), d.Ref)
	rt.PartitionLen = 5000
	rt.NumPartitions = 4
	rt.Known = d.Known

	wgs := BuildWGSPipeline(rt, PairsToRDD(rt, d.Pairs, rt.NumPartitions), false)
	if err := wgs.Pipeline.Run(); err != nil {
		t.Fatal(err)
	}
	calls, err := CollectVCF(rt, wgs.VCF)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("pipeline produced no calls; the digest would be vacuous")
	}
	var vbuf bytes.Buffer
	if err := vcf.Write(&vbuf, vcf.NewHeader(refNames(rt), rt.Ref.Lengths(), "sample"), calls); err != nil {
		t.Fatal(err)
	}

	flat, err := wgs.Recaled.EnsureFlat(rt)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := engine.Collect("golden/sam", flat)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sam.NewHeader(sam.Coordinate, refNames(rt), rt.Ref.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sam.WriteText(&sbuf, h, recs); err != nil {
		t.Fatal(err)
	}
	// Sort the record lines by (contig, position, whole line) so the digest
	// does not depend on the order the engine happened to collect ties in.
	text := strings.TrimSuffix(sbuf.String(), "\n")
	lines := strings.Split(text, "\n")
	var header, body []string
	for _, l := range lines {
		if strings.HasPrefix(l, "@") {
			header = append(header, l)
		} else {
			body = append(body, l)
		}
	}
	ord := make(map[string]int)
	for i, name := range refNames(rt) {
		ord[name] = i
	}
	sort.Slice(body, func(i, j int) bool {
		a, b := samSortKey(ord, body[i]), samSortKey(ord, body[j])
		if a != b {
			return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
		}
		return body[i] < body[j]
	})
	sorted := strings.Join(append(header, body...), "\n") + "\n"

	vs := sha256.Sum256(vbuf.Bytes())
	ss := sha256.Sum256([]byte(sorted))
	return hex.EncodeToString(vs[:]), hex.EncodeToString(ss[:])
}

// samSortKey orders a SAM text line by reference index then 1-based
// position; unmapped records ("*") sort last.
func samSortKey(ord map[string]int, line string) [2]int {
	f := strings.SplitN(line, "\t", 5)
	ref, ok := ord[f[2]]
	if !ok {
		ref = len(ord)
	}
	pos, _ := strconv.Atoi(f[3])
	return [2]int{ref, pos}
}

// readGolden returns the checked-in digest stored in testdata/name.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// TestGoldenWGSDigest pins the pipeline's end-to-end output: the VCF and the
// coordinate-sorted final SAM of the SmallScale run at seeds 42 and 43 must
// hash to the checked-in digests on the in-process backend with one and two
// workers. Every engine path and kernel is byte-identical to its reference
// oracle, so any change that moves a single output byte fails here.
//
// The digests were recorded on linux/amd64. Other GOARCHes may fuse
// floating-point multiply-adds in the pair-HMM and genotyper, which can move
// a likelihood in its last bits, so the test only asserts on amd64.
func TestGoldenWGSDigest(t *testing.T) {
	for _, seed := range []int64{42, 43} {
		base := "smallscale_seed" + strconv.FormatInt(seed, 10)
		wantVCF := readGolden(t, base+".vcf.sha256")
		wantSAM := readGolden(t, base+".sam.sha256")
		for _, workers := range []int{1, 2} {
			gotVCF, gotSAM := goldenOutputs(t, seed, workers)
			if runtime.GOARCH != "amd64" {
				t.Logf("seed %d W=%d: vcf %s sam %s (not asserted on %s)", seed, workers, gotVCF, gotSAM, runtime.GOARCH)
				continue
			}
			if gotVCF != wantVCF {
				t.Errorf("seed %d W=%d: VCF digest %s, want %s", seed, workers, gotVCF, wantVCF)
			}
			if gotSAM != wantSAM {
				t.Errorf("seed %d W=%d: sorted SAM digest %s, want %s", seed, workers, gotSAM, wantSAM)
			}
		}
	}
}
