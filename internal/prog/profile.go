// Package prog provides the synthetic workload substrate of the
// reproduction: generated control-flow-graph programs whose dynamic branch
// behaviour is calibrated, per benchmark, to the gshare misprediction rates
// the paper reports in Table 2.
//
// The paper evaluated eight SPECint95/SPECint2000 benchmarks (compiled Alpha
// binaries run under SimpleScalar/Wattch). Those binaries and inputs are not
// available here, so — per the reproduction's substitution rule — each
// benchmark becomes a seeded Profile describing a synthetic program with the
// same *observable* properties the paper's mechanisms act on:
//
//   - conditional-branch density and gshare-8KB misprediction rate (Table 2),
//   - a skewed distribution of per-branch difficulty (so confidence
//     estimators have something real to estimate),
//   - instruction mix (loads/stores/int/fp) and dependency structure,
//   - code footprint (I-cache behaviour) and data working set (D-cache).
//
// Branch outcomes are pure functions of (per-branch seed, global outcome
// history): a *learnable* component reads a few low history bits through a
// random boolean function, and an *unlearnable* component keyed on deep
// history bits injects irreducible mispredictions with a per-branch bias.
// This gives predictors a genuine learning task (bigger tables help, as in
// the paper's Figure 7) while keeping the walker state tiny, so misprediction
// recovery can restore an exact checkpoint.
//
// # Hot-path layout
//
// The walker is the single hottest function of the simulator's cycle loop,
// so its data structures are laid out for the fetch path:
//
//   - DynInst is one cache line (≤128 bytes pinned by tests). Recovery
//     checkpoints do not live in the instruction record: conditional
//     branches lease a slot in the walker's pooled checkpoint arena and
//     carry only the int32 handle (DynInst.Ckpt). The lease returns on
//     Recover, on correct resolution, or on squash (Walker.Release);
//     CkptStats probes the arena for leak tests.
//   - Branch outcome probabilities are precomputed as 2^24-scaled integer
//     thresholds at Program build time, turning the outcome computation
//     into two hashes plus integer compares. The scaling is exact in
//     IEEE 754 (powers of two only shift the exponent), so the integer
//     form decides precisely the same outcomes as the float reference —
//     see the threshold fields on Branch for the full argument.
//   - Per-block data the walker needs every instruction (successor base
//     PCs, terminator class, flat code/memory-ref tables) is precomputed
//     into blockMeta so Next reads flat arrays instead of chasing Block
//     structures and a (block, index) map.
//
// testdata/walkstream.tsv pins the walker's instruction stream per profile.
package prog

// Profile describes one synthetic benchmark: the generation parameters plus
// the paper-reported characteristics it is calibrated against (Table 2).
type Profile struct {
	Name string // benchmark name, e.g. "go"
	Seed uint64 // master seed; all structure/behaviour derives from it

	// --- Program shape ---
	Funcs        int     // number of generated functions
	SegmentsMin  int     // structural segments per function (min)
	SegmentsMax  int     // structural segments per function (max)
	MeanBlockLen float64 // mean instructions per basic block (geometric)
	MaxDepth     int     // max nesting depth of loops/diamonds per function

	// --- Instruction mix (fractions of non-control instructions) ---
	LoadFrac  float64
	StoreFrac float64
	IntMult   float64
	FPAlu     float64
	FPMult    float64

	// --- Dependency structure ---
	DepProb  float64 // probability a source reads a recently written register
	DepDepth int     // how far back "recently written" reaches

	// --- Branch behaviour ---
	EasyFrac  float64 // fraction of non-loop-body branches that are "easy"
	EasyNoise float64 // unlearnable-outcome probability for easy branches
	HardNoise float64 // mean unlearnable-outcome probability for hard branches
	BiasMean  float64 // mean taken-bias of the unlearnable component
	DetBitsLo int     // learnable component: min history bits consumed
	DetBitsHi int     // learnable component: max history bits consumed
	LoopFrac  float64 // fraction of structures that are loops
	TripMean  float64 // mean loop trip count (drives loop-branch bias)

	// --- Memory behaviour ---
	HotFrac   float64 // fraction of memory ops hitting a small hot region
	HotBytes  uint64  // size of the hot region
	WarmBytes uint64  // size of the medium region
	ColdFrac  float64 // fraction of memory ops hitting the big cold region
	ColdBytes uint64  // size of the cold region (drives D-cache misses)

	// HardFreqOverride sets how often loop bodies execute their hard
	// diamond (the gate branch's taken frequency). It is the primary
	// miss-rate calibration knob; zero means the default 0.5.
	HardFreqOverride float64

	// NoiseScaleOverride rescales both EasyNoise and HardNoise at branch
	// creation; the calibration loop (cmd/stcalib -tune) solves for the
	// value that lands the measured gshare miss rate on the paper's.
	// Zero means 1.0 (no scaling).
	NoiseScaleOverride float64

	// --- Paper-reported characteristics (Table 2), for reports and tests ---
	PaperInput    string  // paper's reduced input set
	PaperMInsts   int     // simulated instructions, millions
	PaperMBranch  int     // dynamic conditional branches, millions
	PaperMissPct  float64 // gshare 8 KB misprediction rate, percent
	TargetMissTol float64 // calibration tolerance band, percentage points
}

// NoiseScale returns the effective noise rescaling factor.
func (p *Profile) NoiseScale() float64 {
	if p.NoiseScaleOverride == 0 {
		return 1.0
	}
	return p.NoiseScaleOverride
}

// HardFreq returns the effective hard-diamond gate frequency.
func (p *Profile) HardFreq() float64 {
	if p.HardFreqOverride == 0 {
		return 0.5
	}
	return p.HardFreqOverride
}

// DefaultInstructions is the per-benchmark dynamic instruction budget used by
// the command-line harness when none is given. The paper ran 145–2231 M
// instructions per benchmark; results here are ratios that stabilise within a
// few hundred thousand instructions of warm simulation, so the default keeps
// full-figure reproductions to minutes.
const DefaultInstructions = 300_000

// Profiles returns the eight benchmark profiles of Table 2, in paper order.
// Each profile's generation parameters were calibrated (cmd/stcalib) so that
// the simulated 8 KB gshare misprediction rate lands within TargetMissTol
// percentage points of the paper's value; calibration tests assert the band.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "compress", Seed: 0xC0317_0001,
			Funcs: 36, SegmentsMin: 3, SegmentsMax: 8, MeanBlockLen: 7, MaxDepth: 3,
			LoadFrac: 0.24, StoreFrac: 0.10, IntMult: 0.02, FPAlu: 0.01, FPMult: 0.0,
			DepProb: 0.75, DepDepth: 4,
			EasyFrac: 0.78, EasyNoise: 0.018, HardNoise: 0.70, BiasMean: 0.6,
			DetBitsLo: 2, DetBitsHi: 6, LoopFrac: 0.35, TripMean: 120,
			HotFrac: 0.55, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.65,
			PaperInput: "40000 e 2231", PaperMInsts: 2231, PaperMBranch: 170,
			PaperMissPct: 10.2, TargetMissTol: 3.0,
		},
		{
			Name: "gcc", Seed: 0xC0317_0002,
			Funcs: 160, SegmentsMin: 3, SegmentsMax: 9, MeanBlockLen: 5, MaxDepth: 3,
			LoadFrac: 0.26, StoreFrac: 0.12, IntMult: 0.01, FPAlu: 0.0, FPMult: 0.0,
			DepProb: 0.74, DepDepth: 4,
			EasyFrac: 0.8, EasyNoise: 0.014, HardNoise: 0.70, BiasMean: 0.6,
			DetBitsLo: 2, DetBitsHi: 7, LoopFrac: 0.22, TripMean: 60,
			HotFrac: 0.50, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.55,
			PaperInput: "genrecog.i", PaperMInsts: 145, PaperMBranch: 19,
			PaperMissPct: 9.2, TargetMissTol: 3.0,
		},
		{
			Name: "go", Seed: 0xC0317_0003,
			Funcs: 130, SegmentsMin: 4, SegmentsMax: 10, MeanBlockLen: 5, MaxDepth: 3,
			LoadFrac: 0.25, StoreFrac: 0.09, IntMult: 0.01, FPAlu: 0.0, FPMult: 0.0,
			DepProb: 0.74, DepDepth: 4,
			EasyFrac: 0.58, EasyNoise: 0.16, HardNoise: 0.8, BiasMean: 0.58,
			DetBitsLo: 2, DetBitsHi: 7, LoopFrac: 0.15, TripMean: 35,
			HotFrac: 0.48, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.95,
			PaperInput: "9 9", PaperMInsts: 146, PaperMBranch: 15,
			PaperMissPct: 19.7, TargetMissTol: 3.5,
		},
		{
			Name: "bzip2", Seed: 0xC0317_0004,
			Funcs: 40, SegmentsMin: 3, SegmentsMax: 8, MeanBlockLen: 5, MaxDepth: 3,
			LoadFrac: 0.26, StoreFrac: 0.11, IntMult: 0.02, FPAlu: 0.0, FPMult: 0.0,
			DepProb: 0.76, DepDepth: 4,
			EasyFrac: 0.82, EasyNoise: 0.006, HardNoise: 0.70, BiasMean: 0.62,
			DetBitsLo: 2, DetBitsHi: 6, LoopFrac: 0.38, TripMean: 150,
			HotFrac: 0.52, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.85,
			PaperInput: "input.source 1", PaperMInsts: 500, PaperMBranch: 43,
			PaperMissPct: 8.0, TargetMissTol: 3.0,
		},
		{
			Name: "crafty", Seed: 0xC0317_0005,
			Funcs: 96, SegmentsMin: 3, SegmentsMax: 9, MeanBlockLen: 6, MaxDepth: 3,
			LoadFrac: 0.27, StoreFrac: 0.08, IntMult: 0.02, FPAlu: 0.0, FPMult: 0.0,
			DepProb: 0.74, DepDepth: 4,
			EasyFrac: 0.82, EasyNoise: 0.006, HardNoise: 0.70, BiasMean: 0.62,
			DetBitsLo: 2, DetBitsHi: 6, LoopFrac: 0.26, TripMean: 80,
			HotFrac: 0.56, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.1,
			PaperInput: "test (modified)", PaperMInsts: 437, PaperMBranch: 38,
			PaperMissPct: 7.7, TargetMissTol: 3.0,
		},
		{
			Name: "gzip", Seed: 0xC0317_0006,
			Funcs: 40, SegmentsMin: 3, SegmentsMax: 8, MeanBlockLen: 4, MaxDepth: 3,
			LoadFrac: 0.24, StoreFrac: 0.10, IntMult: 0.01, FPAlu: 0.0, FPMult: 0.0,
			DepProb: 0.76, DepDepth: 4,
			EasyFrac: 0.8, EasyNoise: 0.006, HardNoise: 0.70, BiasMean: 0.6,
			DetBitsLo: 2, DetBitsHi: 6, LoopFrac: 0.34, TripMean: 110,
			HotFrac: 0.54, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.75,
			PaperInput: "input.source 1", PaperMInsts: 500, PaperMBranch: 52,
			PaperMissPct: 8.8, TargetMissTol: 3.0,
		},
		{
			Name: "parser", Seed: 0xC0317_0007,
			Funcs: 80, SegmentsMin: 3, SegmentsMax: 8, MeanBlockLen: 4, MaxDepth: 3,
			LoadFrac: 0.27, StoreFrac: 0.11, IntMult: 0.01, FPAlu: 0.0, FPMult: 0.0,
			DepProb: 0.74, DepDepth: 4,
			EasyFrac: 0.85, EasyNoise: 0.006, HardNoise: 0.70, BiasMean: 0.62,
			DetBitsLo: 2, DetBitsHi: 6, LoopFrac: 0.28, TripMean: 90,
			HotFrac: 0.55, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.35,
			PaperInput: "test (modified)", PaperMInsts: 500, PaperMBranch: 64,
			PaperMissPct: 6.8, TargetMissTol: 3.0,
		},
		{
			Name: "twolf", Seed: 0xC0317_0008,
			Funcs: 70, SegmentsMin: 3, SegmentsMax: 9, MeanBlockLen: 5, MaxDepth: 3,
			LoadFrac: 0.26, StoreFrac: 0.09, IntMult: 0.02, FPAlu: 0.02, FPMult: 0.01,
			DepProb: 0.74, DepDepth: 4,
			EasyFrac: 0.75, EasyNoise: 0.018, HardNoise: 0.70, BiasMean: 0.6,
			DetBitsLo: 2, DetBitsHi: 6, LoopFrac: 0.26, TripMean: 60,
			HotFrac: 0.52, HotBytes: 4 << 10, WarmBytes: 8 << 10, ColdFrac: 0.22, ColdBytes: 8 << 20,
			NoiseScaleOverride: 1, HardFreqOverride: 0.7,
			PaperInput: "test", PaperMInsts: 258, PaperMBranch: 21,
			PaperMissPct: 11.2, TargetMissTol: 3.0,
		},
	}
}

// ProfileByName returns the profile with the given name, or false.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
