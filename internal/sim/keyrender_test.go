package sim

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
	"selthrottle/internal/store"
)

// fmtConfig is the reference rendering of a Config: fmt's own %#v with the
// retired fields' constant text spliced back in where they stood, which is
// the text every v1 key was derived from while the fields existed.
func fmtConfig(cfg Config) string {
	s := fmt.Sprintf("%#v", cfg)
	s = strings.Replace(s, ", StuckCycles:", ", LegacyScanIssue:false, LegacyFrontEnd:false, LegacyEventLedger:false, StuckCycles:", 1)
	return strings.TrimSuffix(s, "}") + ", LegacyWalk:false}"
}

// fmtDiskKey is the reference key derivation: SHA-256 over fmt's own %#v
// rendering, exactly as diskKeyOf computed it before the plan renderer.
func fmtDiskKey(key cacheKey) store.Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%#v", diskKeySchema, fmtConfig(key.cfg), key.profile)
	var k store.Key
	h.Sum(k[:0])
	return k
}

// checkRendering fails t unless the plan renderer and diskKeyOf agree
// byte for byte with fmt on key.
func checkRendering(t *testing.T, what string, key cacheKey) {
	t.Helper()
	if got, want := appendGoSyntax(nil, &key.cfg), fmtConfig(key.cfg); string(got) != want {
		t.Fatalf("%s: Config renders\n%s\nfmt renders\n%s", what, got, want)
	}
	if got, want := appendGoSyntax(nil, &key.profile), fmt.Sprintf("%#v", key.profile); string(got) != want {
		t.Fatalf("%s: Profile renders\n%s\nfmt renders\n%s", what, got, want)
	}
	if got, want := diskKeyOf(key), fmtDiskKey(key); got != want {
		t.Fatalf("%s: key %s, fmt-rendered key %s", what, got, want)
	}
}

// keyGridScales are the instruction counts the equivalence test enumerates
// the grids at: the golden table's, the benchmark's, the serve workload's
// compute scales, and the paper default.
var keyGridScales = []uint64{2000, 2001, 2002, 2003, 2004, 10000, 0}

// TestKeyRenderingMatchesFmt: for every point of the `all` and `ablation`
// grids at several scales, both as enumerated and canonicalized, the plan
// renderer produces fmt's %#v bytes and diskKeyOf fmt's key.
func TestKeyRenderingMatchesFmt(t *testing.T) {
	n := 0
	for _, exp := range pointKeyGrids {
		for _, scale := range keyGridScales {
			pts, err := EnumerateGrid(exp, "", Options{Instructions: scale})
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range pts {
				what := fmt.Sprintf("%s n=%d point %d (%s, %s)", exp, scale, i, g.Cfg.Policy.Name, g.Profile.Name)
				checkRendering(t, what, cacheKey{g.Cfg, g.Profile})
				checkRendering(t, what+" canonical", cacheKey{canonicalConfig(g.Cfg), canonicalProfile(g.Profile)})
				n++
			}
		}
	}
	if n < 3000 {
		t.Fatalf("only %d grid points checked", n)
	}
}

// keyLeaf is one mutable scalar field of a key struct, by offset.
type keyLeaf struct {
	path string
	kind reflect.Kind
	typ  reflect.Type
	off  uintptr
}

// keyLeaves lists t's scalar fields, the ones FuzzKeyRendering mutates.
func keyLeaves(t reflect.Type, off uintptr, path string, out []keyLeaf) []keyLeaf {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = keyLeaves(f.Type, off+f.Offset, path+"."+f.Name, out)
		}
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			out = keyLeaves(t.Elem(), off+uintptr(i)*t.Elem().Size(), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Interface:
	default:
		out = append(out, keyLeaf{path, t.Kind(), t, off})
	}
	return out
}

// set overwrites the leaf at base with the fuzzer's value of its kind.
func (l keyLeaf) set(base unsafe.Pointer, i int64, u uint64, f float64, b bool, s string) {
	v := reflect.NewAt(l.typ, unsafe.Add(base, l.off)).Elem()
	switch l.kind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(f)
	case reflect.Bool:
		v.SetBool(b)
	case reflect.String:
		v.SetString(s)
	}
}

// FuzzKeyRendering mutates up to two scalar fields of a grid point's Config
// and up to two of its Profile (numbers, bools, strings) and checks the
// plan renderer and diskKeyOf against fmt byte for byte.
//
//	go test ./internal/sim -run '^$' -fuzz FuzzKeyRendering -fuzztime 30s
func FuzzKeyRendering(f *testing.F) {
	pts, err := EnumerateGrid("all", "", Options{Instructions: 2000})
	if err != nil {
		f.Fatal(err)
	}
	abl, err := EnumerateGrid("ablation", "", Options{Instructions: 2000})
	if err != nil {
		f.Fatal(err)
	}
	pts = append(pts, abl...)
	cfgLeaves := keyLeaves(reflect.TypeFor[Config](), 0, "Config", nil)
	profLeaves := keyLeaves(reflect.TypeFor[prog.Profile](), 0, "Profile", nil)

	type seed struct {
		i int64
		u uint64
		f float64
		b bool
		s string
	}
	seeds := []seed{
		{0, 0, 0, false, ""},
		{-1, math.MaxUint64, math.Copysign(0, -1), true, `quo"te\back`},
		{math.MinInt64, 1, math.Inf(1), false, "non-ASCII: żółw ✓"},
		{math.MaxInt64, 1 << 63, math.Inf(-1), true, "\xff\xfe invalid UTF-8"},
		{-128, 255, math.NaN(), false, "\x00\t\n"},
		{1 << 31, 1 << 32, 5e-324, true, "`back`tick"},
		{-32769, 0xdeadbeef, 2.2250738585072014e-308, false, " "},
		{42, 7, 1e21, true, "bpru"},
		{7, 42, -1e-7, false, "jrs"},
		{3, 9, 0.1, true, strings.Repeat("x", 300)},
	}
	for k, s := range seeds {
		f.Add(uint(k*37), uint(k*1009), s.i, s.u, s.f, s.b, s.s)
	}
	f.Fuzz(func(t *testing.T, point, fields uint, i int64, u uint64, fl float64, b bool, s string) {
		g := pts[point%uint(len(pts))]
		key := cacheKey{g.Cfg, g.Profile}
		if point&1 == 1 {
			key = cacheKey{canonicalConfig(g.Cfg), canonicalProfile(g.Profile)}
		}
		cfg, prof := unsafe.Pointer(&key.cfg), unsafe.Pointer(&key.profile)
		cfgLeaves[fields%uint(len(cfgLeaves))].set(cfg, i, u, fl, b, s)
		cfgLeaves[(fields/7)%uint(len(cfgLeaves))].set(cfg, ^i, u>>1, -fl, !b, s+s)
		profLeaves[(fields/3)%uint(len(profLeaves))].set(prof, i, u, fl, b, s)
		profLeaves[(fields/11)%uint(len(profLeaves))].set(prof, -i, ^u, fl/3, b, strings.ToUpper(s))
		checkRendering(t, fmt.Sprintf("point %d fields %d", point, fields), key)
	})
}

// TestPointKeyConcurrent derives keys from several goroutines at once,
// through the shared plan cache, scratch pool and profile memo, with enough
// distinct profiles to make the memo start over repeatedly. Every key must
// still equal the fmt-rendered one; run it under -race.
func TestPointKeyConcurrent(t *testing.T) {
	pts, err := EnumerateGrid("fig3", "", Options{Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		pts[i].Profile.Seed += uint64(i) // a distinct profile per point
	}
	want := make([]store.Key, len(pts))
	for i, g := range pts {
		want[i] = fmtDiskKey(cacheKey{canonicalConfig(g.Cfg), canonicalProfile(g.Profile)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := range pts {
					j := (i + w*17) % len(pts)
					if got := pts[j].Key(); got != want[j] {
						t.Errorf("worker %d point %d: key %s, want %s", w, j, got, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyMemoNegativeZero: -0 equals +0 as a map key but renders
// differently, so the profile memo must never serve one for the other.
func TestKeyMemoNegativeZero(t *testing.T) {
	p, _ := prog.ProfileByName("gcc")
	pos, neg := p, p
	pos.FPMult, neg.FPMult = 0, math.Copysign(0, -1)
	for _, key := range []cacheKey{{Default(), pos}, {Default(), neg}, {Default(), pos}, {Default(), neg}} {
		checkRendering(t, fmt.Sprintf("FPMult=%v", key.profile.FPMult), key)
	}
}

type valueHook struct {
	Name  string
	Every int64
}

func (valueHook) OnStage(pipe.FaultStage, int64) pipe.FaultAction { return pipe.FaultNone }

type pointerHook struct{ Fired int }

func (*pointerHook) OnStage(pipe.FaultStage, int64) pipe.FaultAction { return pipe.FaultNone }

type goStringHook struct{ ID int }

func (goStringHook) OnStage(pipe.FaultStage, int64) pipe.FaultAction { return pipe.FaultNone }
func (h goStringHook) GoString() string                              { return fmt.Sprintf("hook#%d", h.ID) }

// TestKeyRenderingFaultHook: a config carrying a non-nil fault hook keys
// exactly as fmt rendered it — a value hook by its fields, a pointer hook
// by its address (as fmt prints a pointer nested in a struct), and a hook
// with its own GoString through that method.
func TestKeyRenderingFaultHook(t *testing.T) {
	p, _ := prog.ProfileByName("go")
	for _, hook := range []pipe.FaultHook{
		nil,
		valueHook{Name: `stall "fetch"`, Every: -3},
		&pointerHook{Fired: 2},
		goStringHook{ID: 9},
	} {
		cfg := Default()
		cfg.Pipe.Fault = hook
		checkRendering(t, fmt.Sprintf("hook %T", hook), cacheKey{cfg, p})
		if got, want := PointKey(cfg, p), fmtDiskKey(cacheKey{canonicalConfig(cfg), canonicalProfile(p)}); got != want {
			t.Fatalf("hook %T: PointKey %s, fmt-rendered key %s", hook, got, want)
		}
	}
}

type (
	renderKind   int8
	renderString string
	renderInner  struct {
		U8  uint8
		I16 int16
		F32 float32
	}
	renderGo     struct{ X int }
	renderFormat struct{ Y int }
	// RenderEmbed is exported because an embedded field takes its type's
	// name, and the plan refuses unexported fields.
	RenderEmbed struct{ E uint16 }
)

func (r renderGo) GoString() string { return fmt.Sprintf("renderGo(%d)", r.X) }

func (r renderFormat) Format(s fmt.State, verb rune) {
	fmt.Fprintf(s, "<%c %t %d>", verb, s.Flag('#'), r.Y)
}

// renderAll exercises every rendering step the plan has.
type renderAll struct {
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U16    uint16
	U32    uint32
	U64    uint64
	P      uintptr
	B      bool
	F32    float32
	F64    float64
	S      string
	Kind   renderKind
	Str    renderString
	Inner  renderInner
	Arr    [3]renderInner
	Bytes  [4]byte
	Grid   [2][2]int
	Anon   struct{ A, B int }
	Any    any
	AnyNil any
	AnyPtr any
	Hook   pipe.FaultHook
	Go     renderGo
	Fmt    renderFormat
	GoArr  [2]renderGo
	RenderEmbed
}

// TestKeyRenderingAllSteps checks each rendering step against fmt on a
// struct that has them all, at ordinary and extreme values.
func TestKeyRenderingAllSteps(t *testing.T) {
	inner := renderInner{U8: 200, I16: -7, F32: 0.1}
	vals := []renderAll{
		{},
		{
			I: -1, I8: -128, I16: 32767, I32: -1 << 31, I64: math.MinInt64,
			U: 1, U16: 65535, U32: 1 << 31, U64: math.MaxUint64, P: 0xdead,
			B: true, F32: float32(math.Inf(-1)), F64: math.NaN(), S: "a\"b\\c\xffé",
			Kind: -3, Str: "named", Inner: inner, Arr: [3]renderInner{inner, {}, inner},
			Bytes: [4]byte{0, 1, 0xfe, 0xff}, Grid: [2][2]int{{1, -2}, {3, -4}},
			Anon: struct{ A, B int }{5, 6}, Any: inner, AnyPtr: &inner,
			Hook: goStringHook{ID: 1}, Go: renderGo{7}, Fmt: renderFormat{8},
			GoArr: [2]renderGo{{1}, {2}}, RenderEmbed: RenderEmbed{9},
		},
		{F32: float32(math.Copysign(0, -1)), F64: 5e-324, Any: 3, AnyPtr: (*int)(nil), Hook: valueHook{}},
	}
	for i := range vals {
		if got, want := appendGoSyntax(nil, &vals[i]), fmt.Sprintf("%#v", vals[i]); string(got) != want {
			t.Errorf("value %d renders\n%s\nfmt renders\n%s", i, got, want)
		}
	}
	// Appending keeps what the buffer already holds.
	if got, want := appendGoSyntax([]byte("prefix:"), &vals[1]), fmt.Sprintf("prefix:%#v", vals[1]); string(got) != want {
		t.Errorf("appending renders %.40s…, want %.40s…", got, want)
	}
}

// TestKeyPlanRejectsUnrenderableKinds: a key type that grows a field whose
// %#v is not a pure function of its value, or that the plan cannot render
// exactly, fails at plan build instead of keying differently from fmt.
func TestKeyPlanRejectsUnrenderableKinds(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[struct{ M map[string]int }](),
		reflect.TypeFor[struct{ S []int }](),
		reflect.TypeFor[struct{ P *int }](),
		reflect.TypeFor[struct{ F func() }](),
		reflect.TypeFor[struct{ C chan int }](),
		reflect.TypeFor[struct{ C complex128 }](),
		reflect.TypeFor[struct{ C complex64 }](),
		reflect.TypeFor[struct{ U unsafe.Pointer }](),
		reflect.TypeFor[struct{ hidden int }](),
		reflect.TypeFor[struct{ Deep [2]struct{ S []byte } }](),
		reflect.TypeFor[struct {
			Inner struct{ M map[int]int }
		}](),
		reflect.TypeFor[fmt.Stringer](),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buildKeyPlan(%s) did not panic", typ)
				}
			}()
			buildKeyPlan(typ)
		}()
	}
}

// TestPointKeyAllocs bounds the allocations of one key derivation. The
// fmt-based derivation took 3 per key; the plan renderer, with pooled
// scratch state and the profile memo, takes none in steady state, so one
// allocation per key means something (most likely the key itself) started
// escaping to the heap.
func TestPointKeyAllocs(t *testing.T) {
	pts, err := EnumerateGrid("fig3", "", Options{Instructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		g := &pts[i%len(pts)]
		PointKey(g.Cfg, g.Profile)
		i++
	})
	if allocs > 0 {
		t.Fatalf("PointKey: %.1f allocs per key, want 0 (the fmt-based derivation took 3)", allocs)
	}
}
