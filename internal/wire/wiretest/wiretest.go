// Package wiretest backs the reflection-driven round-trip tests of the
// hand-written wire codecs. Fill populates every exported field of an
// envelope struct with a distinct non-zero value, so that a field the
// encoder or decoder forgot comes back zero and fails a DeepEqual — the
// runtime complement of the wiresym lint rule, catching the asymmetries
// static analysis cannot see (a decoder that reads the field into the
// wrong place, a field behind a version gate).
package wiretest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Fill sets every settable exported field of *ptr (a pointer to struct)
// to a distinct non-zero value, recursing through nested structs,
// pointers, slices and maps. Dotted field paths listed in skip are left
// at their zero value — the escape hatch for fields that deliberately do
// not cross the wire.
func Fill(ptr any, skip ...string) {
	skipSet := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	seed := 1
	fill(reflect.ValueOf(ptr).Elem(), "", skipSet, &seed)
}

func fill(v reflect.Value, path string, skip map[string]bool, seed *int) {
	if !v.CanSet() {
		return
	}
	next := func() int64 { *seed++; return int64(*seed) }
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(next())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(next()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(next()))
	case reflect.String:
		v.SetString(fmt.Sprintf("f%d", next()))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(next()), byte(next())})
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), path, skip, seed)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fill(k, path, skip, seed)
		fill(e, path, skip, seed)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), path, skip, seed)
		v.Set(p)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			fp := t.Field(i).Name
			if path != "" {
				fp = path + "." + fp
			}
			if skip[fp] {
				continue
			}
			fill(v.Field(i), fp, skip, seed)
		}
	}
}

// Unfilled returns the dotted paths of exported fields of *ptr that are
// still at their zero value, minus the skipped ones. Round-trip tests
// assert it is empty right after Fill: a non-empty result means Fill does
// not understand some field's kind, and the round-trip would vacuously
// pass for that field.
func Unfilled(ptr any, skip ...string) []string {
	skipSet := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	var zero []string
	collectZero(reflect.ValueOf(ptr).Elem(), "", skipSet, &zero)
	sort.Strings(zero)
	return zero
}

func collectZero(v reflect.Value, path string, skip map[string]bool, out *[]string) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			fp := t.Field(i).Name
			if path != "" {
				fp = path + "." + fp
			}
			if skip[fp] {
				continue
			}
			collectZero(v.Field(i), fp, skip, out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			*out = append(*out, path)
			return
		}
		collectZero(v.Elem(), path, skip, out)
	default:
		if v.IsZero() {
			*out = append(*out, path)
		}
	}
}

// Equal reports whether two values of the same type agree in every
// exported field, at any depth: the comparison for envelopes whose
// unexported fields are the receiver's own and never cross the wire.
func Equal(want, got any) bool {
	var lines []string
	diffValue(reflect.ValueOf(want), reflect.ValueOf(got), "", &lines)
	return len(lines) == 0
}

// Diff renders the first differing field paths between two filled values
// of the same type, for readable round-trip failures.
func Diff(want, got any) string {
	var lines []string
	diffValue(reflect.ValueOf(want), reflect.ValueOf(got), "", &lines)
	if len(lines) == 0 {
		return "(no field-level difference found)"
	}
	return strings.Join(lines, "\n")
}

func diffValue(w, g reflect.Value, path string, out *[]string) {
	if len(*out) >= 10 {
		return
	}
	if w.Kind() == reflect.Pointer {
		if w.IsNil() != g.IsNil() {
			*out = append(*out, fmt.Sprintf("%s: nil mismatch", path))
			return
		}
		if w.IsNil() {
			return
		}
		diffValue(w.Elem(), g.Elem(), path, out)
		return
	}
	if w.Kind() == reflect.Struct {
		t := w.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			fp := t.Field(i).Name
			if path != "" {
				fp = path + "." + fp
			}
			diffValue(w.Field(i), g.Field(i), fp, out)
		}
		return
	}
	if w.Kind() == reflect.Slice && w.Type().Elem().Kind() != reflect.Uint8 {
		if w.Len() != g.Len() {
			*out = append(*out, fmt.Sprintf("%s: encoded %d elements, decoded %d", path, w.Len(), g.Len()))
			return
		}
		for i := 0; i < w.Len(); i++ {
			diffValue(w.Index(i), g.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
		return
	}
	if !w.CanInterface() || !g.CanInterface() {
		return
	}
	if !reflect.DeepEqual(w.Interface(), g.Interface()) {
		*out = append(*out, fmt.Sprintf("%s: encoded %v, decoded %v", path, w.Interface(), g.Interface()))
	}
}
