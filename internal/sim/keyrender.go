package sim

// Reflection-free rendering of the disk tier's key bytes. diskKeyOf hashes
// the fmt %#v rendering of the canonical Config and Profile; fmt gets there
// by walking both structs with reflection on every call, which made key
// derivation the largest cost of a sweep served from a warm store. This
// file produces the identical bytes from a plan compiled once per type: a
// flat list of (literal, field offset, kind) steps that the renderer walks
// with plain loads and strconv appends.
//
// The plan reproduces exactly the subset of fmt's %#v that plain value
// structs need:
//
//	struct        pkg.T{Field:…, Field:…}
//	array         [N]T{…, …}
//	signed int    decimal
//	unsigned int  0x-prefixed lower-case hex
//	bool          true / false
//	float         strconv 'g', shortest (+Inf, -Inf, NaN as fmt spells them)
//	string        strconv.Quote
//	interface     T(nil) when nil; fmt renders a non-nil dynamic value
//
// A type that formats itself (fmt.Formatter or fmt.GoStringer) is handed
// to fmt for that one value. Kinds whose %#v is not a pure function of the
// value (pointers, maps, slices, funcs, chans, unsafe pointers), complex
// numbers, and unexported fields (which fmt renders without their methods)
// are refused when the plan is built: a key type that grows such a field
// fails every key derivation, and so tier-1, instead of silently keying
// differently from the bytes the golden table and stores were built with.
//
// Deleted fields of a key type stay in the text as constant literals (see
// retiredKeyFields), so deleting one moves no key.

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unsafe"

	"selthrottle/internal/pipe"
)

// retiredKeyFields lists deleted key-type fields by type and by the field
// that preceded them. The plan renders each as the constant text fmt gave it
// when it was false, as it was on every default run, so every v1 key keeps
// its bytes and existing stores and golden tables stay valid. (The four
// fields selected reference implementations of the cycle model that gave
// bit-identical results; entries stored with one of them set are simply no
// longer looked up.)
var retiredKeyFields = map[reflect.Type]map[string]string{
	reflect.TypeFor[pipe.Config](): {"PerfectDisambiguation": ", LegacyScanIssue:false, LegacyFrontEnd:false, LegacyEventLedger:false"},
	reflect.TypeFor[Config]():      {"Warmup": ", LegacyWalk:false"},
}

// keyOpKind is how one rendering step reads and formats its value.
type keyOpKind uint8

const (
	keyInt keyOpKind = iota
	keyInt8
	keyInt16
	keyInt32
	keyInt64
	keyUint
	keyUint8
	keyUint16
	keyUint32
	keyUint64
	keyUintptr
	keyBool
	keyFloat32
	keyFloat64
	keyString
	keyIface  // interface: nil renders as lit "T(nil)"; otherwise via fmt
	keyMethod // a type with its own Format/GoString: rendered by fmt
)

// keyOp is one rendering step: the literal text that precedes the value,
// then the value at off from the rendered struct's base.
type keyOp struct {
	lit    string
	kind   keyOpKind
	off    uintptr
	typ    reflect.Type
	nilLit string // keyIface: the nil rendering, "T(nil)"
}

// keyPlan renders values of one type: each op in order, then the literal
// tail (closing braces).
type keyPlan struct {
	ops  []keyOp
	tail string
}

var (
	formatterType  = reflect.TypeFor[fmt.Formatter]()
	goStringerType = reflect.TypeFor[fmt.GoStringer]()

	keyPlans sync.Map // reflect.Type -> *keyPlan
)

// keyPlanFor returns the cached plan for t, building it on first use.
func keyPlanFor(t reflect.Type) *keyPlan {
	if p, ok := keyPlans.Load(t); ok {
		return p.(*keyPlan)
	}
	p, _ := keyPlans.LoadOrStore(t, buildKeyPlan(t))
	return p.(*keyPlan)
}

// appendGoSyntax appends v's %#v rendering to buf, byte-identical to
// fmt.Appendf(buf, "%#v", *v).
func appendGoSyntax[T any](buf []byte, v *T) []byte {
	return keyPlanFor(reflect.TypeFor[T]()).render(buf, unsafe.Pointer(v))
}

// buildKeyPlan compiles t's rendering plan.
//
// invariant: key types are plain value structs. A field the plan cannot
// render exactly (see the file comment) is a programming error, and it
// panics here, on the first key derived, rather than keying differently.
func buildKeyPlan(t reflect.Type) *keyPlan {
	if t.Kind() == reflect.Interface {
		panic(fmt.Sprintf("sim: key rendering: top-level interface type %s", t))
	}
	var b keyPlanBuilder
	b.value(t, 0, t.String())
	return &keyPlan{ops: b.ops, tail: string(b.lit)}
}

type keyPlanBuilder struct {
	ops []keyOp
	lit []byte // literal text pending before the next op
}

func (b *keyPlanBuilder) op(kind keyOpKind, off uintptr, t reflect.Type) {
	op := keyOp{lit: string(b.lit), kind: kind, off: off, typ: t}
	if kind == keyIface {
		op.nilLit = t.String() + "(nil)"
	}
	b.ops = append(b.ops, op)
	b.lit = b.lit[:0]
}

// scalarKeyOps maps the scalar kinds onto their rendering step.
var scalarKeyOps = map[reflect.Kind]keyOpKind{
	reflect.Int: keyInt, reflect.Int8: keyInt8, reflect.Int16: keyInt16,
	reflect.Int32: keyInt32, reflect.Int64: keyInt64,
	reflect.Uint: keyUint, reflect.Uint8: keyUint8, reflect.Uint16: keyUint16,
	reflect.Uint32: keyUint32, reflect.Uint64: keyUint64, reflect.Uintptr: keyUintptr,
	reflect.Bool: keyBool, reflect.Float32: keyFloat32, reflect.Float64: keyFloat64,
	reflect.String: keyString,
}

// value appends the steps rendering a t at offset off; path names the
// value in panic messages.
//
// invariant: panics on a value the plan cannot render exactly (see
// buildKeyPlan).
func (b *keyPlanBuilder) value(t reflect.Type, off uintptr, path string) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Func, reflect.Chan,
		reflect.UnsafePointer, reflect.Complex64, reflect.Complex128:
		panic(fmt.Sprintf("sim: key rendering: %s is a %s (%s), which has no exact reflection-free rendering", path, t.Kind(), t))
	}
	// An interface is checked before methods: fmt consults the dynamic
	// value's methods, never the interface type's, and renders nil itself.
	if t.Kind() == reflect.Interface {
		b.op(keyIface, off, t)
		return
	}
	if t.Implements(formatterType) || t.Implements(goStringerType) {
		b.op(keyMethod, off, t)
		return
	}
	switch t.Kind() {
	case reflect.Struct:
		b.lit = append(b.lit, t.String()...)
		b.lit = append(b.lit, '{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("sim: key rendering: %s.%s is unexported", path, f.Name))
			}
			if i > 0 {
				b.lit = append(b.lit, ", "...)
			}
			b.lit = append(b.lit, f.Name...)
			b.lit = append(b.lit, ':')
			b.value(f.Type, off+f.Offset, path+"."+f.Name)
			b.lit = append(b.lit, retiredKeyFields[t][f.Name]...)
		}
		b.lit = append(b.lit, '}')
	case reflect.Array:
		b.lit = append(b.lit, t.String()...)
		b.lit = append(b.lit, '{')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.lit = append(b.lit, ", "...)
			}
			b.value(t.Elem(), off+uintptr(i)*t.Elem().Size(), path+"["+strconv.Itoa(i)+"]")
		}
		b.lit = append(b.lit, '}')
	default:
		kind, ok := scalarKeyOps[t.Kind()]
		if !ok {
			panic(fmt.Sprintf("sim: key rendering: %s has unrenderable kind %s", path, t.Kind()))
		}
		b.op(kind, off, t)
	}
}

// render appends the rendering of the value at base, which must point to
// a value of the plan's type.
func (p *keyPlan) render(buf []byte, base unsafe.Pointer) []byte {
	for i := range p.ops {
		op := &p.ops[i]
		buf = append(buf, op.lit...)
		at := unsafe.Add(base, op.off)
		switch op.kind {
		case keyInt:
			buf = strconv.AppendInt(buf, int64(*(*int)(at)), 10)
		case keyInt8:
			buf = strconv.AppendInt(buf, int64(*(*int8)(at)), 10)
		case keyInt16:
			buf = strconv.AppendInt(buf, int64(*(*int16)(at)), 10)
		case keyInt32:
			buf = strconv.AppendInt(buf, int64(*(*int32)(at)), 10)
		case keyInt64:
			buf = strconv.AppendInt(buf, *(*int64)(at), 10)
		case keyUint:
			buf = strconv.AppendUint(append(buf, "0x"...), uint64(*(*uint)(at)), 16)
		case keyUint8:
			buf = strconv.AppendUint(append(buf, "0x"...), uint64(*(*uint8)(at)), 16)
		case keyUint16:
			buf = strconv.AppendUint(append(buf, "0x"...), uint64(*(*uint16)(at)), 16)
		case keyUint32:
			buf = strconv.AppendUint(append(buf, "0x"...), uint64(*(*uint32)(at)), 16)
		case keyUint64:
			buf = strconv.AppendUint(append(buf, "0x"...), *(*uint64)(at), 16)
		case keyUintptr:
			buf = strconv.AppendUint(append(buf, "0x"...), uint64(*(*uintptr)(at)), 16)
		case keyBool:
			buf = strconv.AppendBool(buf, *(*bool)(at))
		case keyFloat32:
			buf = strconv.AppendFloat(buf, float64(*(*float32)(at)), 'g', -1, 32)
		case keyFloat64:
			buf = strconv.AppendFloat(buf, *(*float64)(at), 'g', -1, 64)
		case keyString:
			buf = strconv.AppendQuote(buf, *(*string)(at))
		case keyIface:
			if v := reflect.NewAt(op.typ, at).Elem(); v.IsNil() {
				buf = append(buf, op.nilLit...)
			} else {
				buf = appendNestedGoSyntax(buf, v.Interface())
			}
		case keyMethod:
			buf = appendNestedGoSyntax(buf, reflect.NewAt(op.typ, at).Elem().Interface())
		}
	}
	return append(buf, p.tail...)
}

// memoSafe reports whether a value equal (==) to the one at base is sure
// to render to the same bytes, so a rendering may be memoized under it.
// Go equality is not rendering identity for -0 (equal to +0, rendered
// "-0") nor, conservatively, for anything rendered through fmt; an
// interface holding an incomparable value would also panic as a map key.
// NaN never equals itself, so it can never be served from a memo.
func (p *keyPlan) memoSafe(base unsafe.Pointer) bool {
	for i := range p.ops {
		op := &p.ops[i]
		at := unsafe.Add(base, op.off)
		switch op.kind {
		case keyFloat32:
			if f := *(*float32)(at); f == 0 && math.Signbit(float64(f)) {
				return false
			}
		case keyFloat64:
			if f := *(*float64)(at); f == 0 && math.Signbit(f) {
				return false
			}
		case keyIface, keyMethod:
			return false
		}
	}
	return true
}

// keyMemo memoizes renderings of values of T by value. It holds at most
// max entries and starts over when full, so it stays bounded whatever
// stream of values it sees.
type keyMemo[T comparable] struct {
	max int

	mu sync.Mutex
	m  map[T]string
}

// append appends v's %#v rendering to buf, from the memo when it holds v.
func (c *keyMemo[T]) append(buf []byte, v *T) []byte {
	plan := keyPlanFor(reflect.TypeFor[T]())
	if !plan.memoSafe(unsafe.Pointer(v)) {
		return plan.render(buf, unsafe.Pointer(v))
	}
	c.mu.Lock()
	text, ok := c.m[*v]
	c.mu.Unlock()
	if ok {
		return append(buf, text...)
	}
	start := len(buf)
	buf = plan.render(buf, unsafe.Pointer(v))
	c.mu.Lock()
	if c.m == nil || len(c.m) >= c.max {
		c.m = make(map[T]string, c.max)
	}
	c.m[*v] = string(buf[start:])
	c.mu.Unlock()
	return buf
}

// nestedPrefix opens the one-element array appendNestedGoSyntax wraps its
// value in.
var nestedPrefix = reflect.TypeFor[[1]any]().String() + "{"

// appendNestedGoSyntax appends fmt's %#v rendering of v as a value nested
// inside a struct. That differs from rendering v on its own for pointers
// (fmt prints a top-level pointer to a struct as &T{…} but a nested one as
// an address), so v is rendered as the element of a one-element array and
// the array's own type and braces are stripped.
func appendNestedGoSyntax(buf []byte, v any) []byte {
	start := len(buf)
	buf = fmt.Appendf(buf, "%#v", [1]any{v})
	n := copy(buf[start:], buf[start+len(nestedPrefix):len(buf)-1])
	return buf[:start+n]
}
