package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"yap/internal/layout"
)

// CanonicalHash returns a stable 64-bit FNV-1a digest of the parameter
// set. Two parameter sets hash equal iff they are numerically equal
// (negative zero is folded into positive zero), which makes the hash a
// sound cache key for the analytic model: every model output is a pure
// function of Params.
//
// The digest walks the struct fields in declaration order and feeds each
// float64's IEEE-754 bit pattern into the hash, so the value is stable
// within a process and across processes of the same build. It is NOT
// guaranteed stable across releases that add, remove or reorder fields —
// callers must not persist it.
func (p Params) CanonicalHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	v := reflect.ValueOf(p)
	layoutPtr := reflect.TypeOf((*layout.Layout)(nil))
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Float64:
			x := f.Float()
			if x == 0 {
				x = 0 // fold -0.0 into +0.0
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		case f.Type() == layoutPtr:
			// A nil layout contributes nothing, so every pre-layout
			// parameter set keeps its historical hash and existing cache
			// entries and WAL specs stay valid. A set layout feeds its
			// canonical bytes behind a domain separator, so no float-field
			// ambiguity is possible and distinct layouts hash distinctly
			// (hash_test pins both properties).
			if !f.IsNil() {
				h.Write([]byte("layout:"))
				h.Write(f.Interface().(*layout.Layout).CanonicalBytes())
			}
		default:
			// Every Params field is float64 or the PadLayout pointer
			// (core_test pins this), so the branch is unreachable until
			// someone adds another field kind — at which point it must
			// extend this switch rather than be silently skipped.
			// CanonicalHash is the service cache key and must stay
			// infallible, so the guard panics instead of returning an
			// error.
			panic(fmt.Sprintf("core: CanonicalHash: unhashed field %s of kind %s", //yaplint:allow no-naked-panic unreachable while Params fields stay float64/PadLayout; hash must stay infallible
				v.Type().Field(i).Name, f.Kind()))
		}
	}
	return h.Sum64()
}

// HashString returns CanonicalHash formatted by FormatHash, the form the
// service layer reports in API responses.
func (p Params) HashString() string {
	return FormatHash(p.CanonicalHash())
}

// FormatHash formats a CanonicalHash as a fixed-width hex string.
func FormatHash(h uint64) string {
	return fmt.Sprintf("%016x", h)
}
