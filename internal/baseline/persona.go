package baseline

import (
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/sam"
)

// PersonaModel captures the published behaviour of Persona's AGD format
// pipeline (§5.2.3): FASTQ imports to AGD at 360 MB/s and alignment results
// export from AGD to BAM at 82 MB/s — a serial conversion the paper charges
// against Persona's headline alignment throughput.
type PersonaModel struct {
	ConvertInMBps  float64
	ConvertOutMBps float64
}

// DefaultPersonaModel returns the rates reported by the Persona paper and
// quoted in §5.2.3.
func DefaultPersonaModel() PersonaModel {
	return PersonaModel{ConvertInMBps: 360, ConvertOutMBps: 82}
}

// ConversionTime returns the serial AGD conversion time for a dataset with
// the given FASTQ input size and BAM output size.
func (m PersonaModel) ConversionTime(fastqBytes, bamBytes int64) time.Duration {
	in := float64(fastqBytes) / (m.ConvertInMBps * 1e6)
	out := float64(bamBytes) / (m.ConvertOutMBps * 1e6)
	return time.Duration((in + out) * float64(time.Second))
}

// PersonaAlignStage names the stage of RunPersonaAlign that runs the aligner.
const PersonaAlignStage = "persona/align-single-end"

// RunPersonaAlign aligns reads single-end (Persona integrates SNAP and uses
// single-end reads; §5.2.3), returning engine metrics for the alignment
// compute itself. Conversion time is charged separately via ConversionTime.
func RunPersonaAlign(rt *core.Runtime, pairs []fastq.Pair) (engine.Metrics, int64, error) {
	rt.Engine.ResetMetrics()
	var fastqBytes int64
	reads := make([]fastq.Record, 0, 2*len(pairs))
	for i := range pairs {
		fastqBytes += int64(pairs[i].Bytes())
		reads = append(reads, pairs[i].R1, pairs[i].R2)
	}
	idx, err := rt.Index()
	if err != nil {
		return engine.Metrics{}, 0, err
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	ds := engine.Parallelize(rt.Engine, reads, rt.NumPartitions)
	aligned, err := engine.MapPartitions(PersonaAlignStage, ds, nil,
		func(_ int, rs []fastq.Record) ([]sam.Record, error) {
			out := make([]sam.Record, 0, len(rs))
			for i := range rs {
				als := aligner.AlignSeq(rs[i].Seq, rs[i].Qual)
				rec := sam.Record{Name: rs[i].Name, Seq: rs[i].Seq, Qual: rs[i].Qual, RefID: -1, Pos: -1, MateRef: -1, MatePos: -1}
				if len(als) == 0 {
					rec.Flag = sam.FlagUnmapped
				} else {
					a := als[0]
					rec.RefID = int32(a.Pos.Contig)
					rec.Pos = int32(a.Pos.Pos)
					rec.MapQ = a.MapQ
					rec.Cigar = a.Cigar
					rec.Seq, rec.Qual = a.Seq, a.Qual
					if a.Reverse {
						rec.Flag |= sam.FlagReverse
					}
				}
				out = append(out, rec)
			}
			return out, nil
		})
	if err != nil {
		return engine.Metrics{}, 0, err
	}
	if _, err := engine.Count("persona/materialize", aligned); err != nil {
		return engine.Metrics{}, 0, err
	}
	return rt.Engine.Metrics(), fastqBytes, nil
}

// AlignmentThroughput converts an aligned-base count and a wall time into
// gigabases per second — the y-axis of Fig 11(d).
func AlignmentThroughput(bases int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(bases) / 1e9 / wall.Seconds()
}
