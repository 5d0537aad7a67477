// Package canon provides the byte encoding of the cell store's result
// bodies and the stats accumulator encoders (see DESIGN.md §6g). Values are fixed-width
// little-endian u64 so encodings are positional: two states are equal exactly
// when their canon byte strings are equal, with no delimiters to confuse.
package canon

import "encoding/binary"

// AppendU64 appends v to dst in little-endian order and returns the
// extended slice.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// U64 decodes the leading u64 from src and returns it with the remaining
// bytes. Panics if src is short: canon blobs are produced and consumed by
// the same code paths, so truncation is a programming error, not input.
func U64(src []byte) (uint64, []byte) {
	if len(src) < 8 {
		panic("canon: truncated blob")
	}
	return binary.LittleEndian.Uint64(src), src[8:]
}
