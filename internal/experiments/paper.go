package experiments

// Published values from the paper, used by the experiment harness to print
// measured results side by side with the original measurements and by the
// test suite to assert that the reproduction preserves the paper's
// qualitative shape.

// PaperTable1 is the paper's Table I: fraction (in percent) of clock cycles
// during which the work list is empty, per benchmark, for 1/2/4/8/16 cores.
var PaperTable1 = map[string][5]float64{
	"compress": {0.01, 0.15, 98.58, 99.43, 99.72},
	"cup":      {0.00, 0.01, 0.02, 0.04, 0.10},
	"db":       {0.00, 0.01, 0.02, 0.03, 0.06},
	"javac":    {0.00, 0.01, 0.01, 0.03, 0.08},
	"javacc":   {0.15, 0.57, 1.35, 3.06, 5.34},
	"jflex":    {0.02, 0.05, 0.13, 5.48, 35.35},
	"jlisp":    {0.10, 0.27, 0.61, 1.34, 2.59},
	"search":   {0.06, 73.74, 98.75, 99.53, 99.76},
}

// PaperStall is one row of the paper's Table II (16 cores): total clock
// cycles per collection cycle, and the mean per-core stall cycles by cause.
type PaperStall struct {
	Total                                        int64
	ScanLock, FreeLock, HeaderLock               int64
	BodyLoad, BodyStore, HeaderLoad, HeaderStore int64
}

// PaperTable2 is the paper's Table II (the paper lists the last row as
// "searchA", an apparent typo for search).
var PaperTable2 = map[string]PaperStall{
	"compress": {4735060, 113, 4, 38, 75023, 14626, 2821, 0},
	"cup":      {3251965, 341040, 2940, 7917, 493847, 4074, 1254764, 337},
	"db":       {1089535, 20633, 893, 1195, 232208, 6174, 360913, 0},
	"javac":    {2141803, 19067, 1019, 629596, 235314, 4442, 560618, 0},
	"javacc":   {542825, 18289, 340, 837, 101272, 2900, 153939, 0},
	"jflex":    {411784, 1517, 96, 208, 55538, 3809, 44618, 0},
	"jlisp":    {37247, 724, 30, 161, 5468, 243, 10527, 0},
	"search":   {5916511, 113, 4, 41, 64849, 15542, 2953, 0},
}

// Headline speedups from the paper's abstract and Figure 5: an 8-core
// coprocessor decreases GC cycle duration by up to 7.4×, a 16-core one by up
// to 12.1×, while compress and search show no significant speedup.
const (
	PaperMaxSpeedup8  = 7.4
	PaperMaxSpeedup16 = 12.1
)

// NonScalingBenches are the benchmarks the paper singles out as lacking
// object-level parallelism.
var NonScalingBenches = []string{"compress", "search"}
