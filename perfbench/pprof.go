package main

// A stdlib-only reader for the CPU profiles runtime/pprof writes: gzipped
// protocol buffers in the profile.proto format. It reads only what the
// self-time table needs — samples, locations, functions, labels and the
// string table — and attributes each sample's CPU time to the package of
// its innermost frame.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// pbField is one decoded protobuf field: a varint, or a length-delimited
// payload (sub-message, string or packed repeated varints).
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
	isLen  bool
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var fs []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			f.varint, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.bytes, f.isLen, b = b[n:n+int(l)], true, b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			f.varint, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// varints returns a repeated varint field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if !f.isLen {
		return []uint64{f.varint}, nil
	}
	var vs []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		vs, b = append(vs, v), b[n:]
	}
	return vs, nil
}

// selfTimes reads a CPU profile and returns the CPU time whose innermost
// frame lies in each layer (a selthrottle/internal package's last path
// element, "runtime" for the Go runtime, "other" for the rest), and the
// CPU time per "figure" profiler label.
func selfTimes(path string) (layers, labels map[string]time.Duration, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %v", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %v", err)
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, nil, err
	}
	var (
		strs      []string
		types     [][2]uint64 // sample_type (type, unit) string indexes
		samples   [][]byte
		funcName  = map[uint64]uint64{} // function id -> name string index
		leafFunc  = map[uint64]uint64{} // location id -> innermost function id
		valueSlot = -1
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			vt, err := pbFields(f.bytes)
			if err != nil {
				return nil, nil, err
			}
			var t [2]uint64
			for _, g := range vt {
				if g.num == 1 || g.num == 2 {
					t[g.num-1] = g.varint
				}
			}
			types = append(types, t)
		case 2:
			samples = append(samples, f.bytes)
		case 4: // location: id, line{function_id} with the innermost line first
			loc, err := pbFields(f.bytes)
			if err != nil {
				return nil, nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, g := range loc {
				switch {
				case g.num == 1:
					id = g.varint
				case g.num == 4 && !seenLine:
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fn = h.varint
						}
					}
					seenLine = true
				}
			}
			leafFunc[id] = fn
		case 5: // function: id, name
			fnf, err := pbFields(f.bytes)
			if err != nil {
				return nil, nil, err
			}
			var id, name uint64
			for _, g := range fnf {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for i, t := range types {
		if str(t[1]) == "nanoseconds" {
			valueSlot = i
		}
	}
	if valueSlot < 0 {
		return nil, nil, errors.New("pprof: no nanoseconds sample type")
	}
	layers = map[string]time.Duration{}
	labels = map[string]time.Duration{}
	for _, s := range samples {
		fs, err := pbFields(s)
		if err != nil {
			return nil, nil, err
		}
		var locs, vals []uint64
		label := ""
		for _, f := range fs {
			switch f.num {
			case 1:
				v, err := f.varints()
				if err != nil {
					return nil, nil, err
				}
				locs = append(locs, v...)
			case 2:
				v, err := f.varints()
				if err != nil {
					return nil, nil, err
				}
				vals = append(vals, v...)
			case 3:
				lf, err := pbFields(f.bytes)
				if err != nil {
					return nil, nil, err
				}
				var key, val uint64
				for _, g := range lf {
					switch g.num {
					case 1:
						key = g.varint
					case 2:
						val = g.varint
					}
				}
				if str(key) == "figure" {
					label = str(val)
				}
			}
		}
		if len(locs) == 0 || valueSlot >= len(vals) {
			continue
		}
		d := time.Duration(vals[valueSlot])
		layers[layerOf(str(funcName[leafFunc[locs[0]]]))] += d
		if label != "" {
			labels[label] += d
		}
	}
	return layers, labels, nil
}

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "selthrottle/internal/"):
		return strings.TrimPrefix(pkg, "selthrottle/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
