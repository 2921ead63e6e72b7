// Package jsonw appends JSON strings and numbers to byte slices, byte for
// byte as encoding/json renders them with SetEscapeHTML(false), without
// reflection. encoding/json stays the reference: the tests compare every
// byte against it.
package jsonw

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string. Like encoding/json it
// escapes '"', '\\' and the bytes below 0x20 (\b \f \n \r \t by name, the
// rest as \u00XX), replaces each invalid UTF-8 byte with \ufffd and escapes
// U+2028 and U+2029; '<', '>', '&' and DEL pass through.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if k := strings.IndexByte("\\\"\b\f\n\r\t", b); k >= 0 {
				dst = append(dst, '\\', `\"bfnrt`[k])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			if c == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			}
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// representation that round-trips, in exponent form only below 1e-6 or from
// 1e21 up, with the exponent unpadded. f must be finite (encoding/json
// refuses NaN and ±Inf).
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
