package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// reference renders v as encoding/json does with HTML escaping off.
func reference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", `"\`, "<>&", "  ", "\xe2\x80", "\xe2\x80\xa8x", "日本\xffé"}
	// every single byte, alone and between runes
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "é"+string([]byte{byte(b)})+"x")
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("ab\"\\\x00\x1f\x7f\n<&\xe2\x80\xa8\xa9\xff\xc3\xa9")
	for i := 0; i < 2000; i++ {
		s := make([]byte, rng.Intn(12))
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(s))
	}
	for _, s := range cases {
		if got, want := AppendString([]byte("x"), s), append([]byte("x"), reference(t, s)...); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	var cases []float64
	for _, f := range []float64{0, 1, 0.15, 1e-6, 1e-7, 1e20, 1e21, 123456789, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		cases = append(cases, f, -f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
	}
	cases = append(cases, math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(1))
	for len(cases) < 20000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			cases = append(cases, f)
		}
	}
	for _, f := range cases {
		if math.IsInf(f, 0) {
			continue // encoding/json refuses it too
		}
		if got, want := AppendFloat(nil, f), reference(t, f); !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): got %s, want %s", f, math.Float64bits(f), got, want)
		}
	}
}
