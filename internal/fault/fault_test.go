package fault

import (
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Err(StoreWrite); err != nil {
		t.Fatalf("nil injector returned %v", err)
	}
	data := []byte("payload")
	out, mangled := in.Mangle(StoreWrite, data)
	if mangled || string(out) != "payload" {
		t.Fatalf("nil injector mangled: %q %v", out, mangled)
	}
	if in.Active() {
		t.Fatal("nil injector active")
	}
	if in.String() != "" {
		t.Fatalf("nil injector spec %q", in.String())
	}
	in.Set(StoreWrite, Rule{ErrProb: 1})
	in.Reset()
	in.SetSleep(nil)
	if n := in.Hits(); len(n) != 0 {
		t.Fatalf("nil injector hits %v", n)
	}
}

func TestErrDeterministicForSeed(t *testing.T) {
	draw := func(seed int64) []bool {
		in := New(seed)
		in.Set(VSMScore, Rule{ErrProb: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Err(VSMScore) != nil
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical fault sequence")
	}
}

func TestErrProbabilityEndpoints(t *testing.T) {
	in := New(1)
	in.Set(NLPAnnotate, Rule{ErrProb: 1})
	for i := 0; i < 20; i++ {
		err := in.Err(NLPAnnotate)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("prob=1 draw %d: %v", i, err)
		}
	}
	if err := in.Err(ServiceHandler); err != nil {
		t.Fatalf("unconfigured point injected: %v", err)
	}
	if got := in.Hits()[NLPAnnotate]; got != 20 {
		t.Fatalf("hits = %d, want 20", got)
	}
}

func TestLatencyInjection(t *testing.T) {
	in := New(1)
	var slept []time.Duration
	in.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	in.Set(VSMScore, Rule{Latency: 5 * time.Millisecond, LatencyProb: 1})
	for i := 0; i < 3; i++ {
		if err := in.Err(VSMScore); err != nil {
			t.Fatalf("latency-only rule returned error: %v", err)
		}
	}
	if len(slept) != 3 || slept[0] != 5*time.Millisecond {
		t.Fatalf("slept %v", slept)
	}

	// probabilistic latency: some draws sleep, some don't
	slept = nil
	in.Set(VSMScore, Rule{Latency: time.Millisecond, LatencyProb: 0.5})
	for i := 0; i < 64; i++ {
		_ = in.Err(VSMScore)
	}
	if len(slept) == 0 || len(slept) == 64 {
		t.Fatalf("latency@0.5 slept %d/64 times", len(slept))
	}
}

func TestMangleTruncates(t *testing.T) {
	in := New(3)
	in.Set(StoreWrite, Rule{PartialProb: 1})
	data := []byte("0123456789")
	out, mangled := in.Mangle(StoreWrite, data)
	if !mangled {
		t.Fatal("prob=1 mangle did not fire")
	}
	if len(out) >= len(data) {
		t.Fatalf("mangled output not truncated: %d bytes", len(out))
	}
	if string(data) != "0123456789" {
		t.Fatal("Mangle mutated the caller's slice")
	}
	// unconfigured point passes data through untouched
	out, mangled = in.Mangle(StoreRead, data)
	if mangled || &out[0] != &data[0] {
		t.Fatal("unconfigured mangle copied or fired")
	}
	// empty payloads cannot be truncated further
	if _, m := in.Mangle(StoreWrite, nil); m {
		t.Fatal("mangled an empty payload")
	}
}

func TestResetAndActive(t *testing.T) {
	in := New(1)
	if in.Active() {
		t.Fatal("fresh injector active")
	}
	in.Set(StoreWrite, Rule{ErrProb: 1})
	if !in.Active() {
		t.Fatal("configured injector inactive")
	}
	_ = in.Err(StoreWrite)
	in.Reset()
	if in.Active() {
		t.Fatal("reset injector still active")
	}
	if err := in.Err(StoreWrite); err != nil {
		t.Fatalf("reset injector injected: %v", err)
	}
	if in.Hits()[StoreWrite] != 1 {
		t.Fatal("Reset dropped hit counts")
	}
	// a zero rule removes the point
	in.Set(StoreWrite, Rule{ErrProb: 1})
	in.Set(StoreWrite, Rule{})
	if in.Active() {
		t.Fatal("zero rule did not remove the point")
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, in *Injector)
	}{
		{spec: "", check: func(t *testing.T, in *Injector) {
			if in != nil {
				t.Fatal("empty spec built an injector")
			}
		}},
		{spec: "store.write:err=0.5;partial=0.25", check: func(t *testing.T, in *Injector) {
			r := in.rules[StoreWrite]
			if r.ErrProb != 0.5 || r.PartialProb != 0.25 {
				t.Fatalf("rule %+v", r)
			}
		}},
		{spec: "vsm.score:lat=5ms@0.5", check: func(t *testing.T, in *Injector) {
			r := in.rules[VSMScore]
			if r.Latency != 5*time.Millisecond || r.LatencyProb != 0.5 {
				t.Fatalf("rule %+v", r)
			}
		}},
		{spec: "all:err=0.1", check: func(t *testing.T, in *Injector) {
			if len(in.rules) != len(Points()) {
				t.Fatalf("all: configured %d points, want %d", len(in.rules), len(Points()))
			}
			for _, p := range Points() {
				if in.rules[p].ErrProb != 0.1 {
					t.Fatalf("point %s rule %+v", p, in.rules[p])
				}
			}
		}},
		{spec: "nlp.annotate:lat=1ms, vsm.score:err=1", check: func(t *testing.T, in *Injector) {
			if in.rules[NLPAnnotate].Latency != time.Millisecond || in.rules[VSMScore].ErrProb != 1 {
				t.Fatalf("rules %+v", in.rules)
			}
		}},
		{spec: "bogus.point:err=1", wantErr: true},
		{spec: "store.write", wantErr: true},
		{spec: "store.write:err=2", wantErr: true},
		{spec: "store.write:err=x", wantErr: true},
		{spec: "store.write:lat=-5ms", wantErr: true},
		{spec: "store.write:lat=5ms@9", wantErr: true},
		{spec: "store.write:frob=1", wantErr: true},
		{spec: "store.write:err", wantErr: true},
		{spec: "store.write:;", wantErr: true},
	}
	for _, tt := range tests {
		in, err := Parse(tt.spec)
		if tt.wantErr {
			if err == nil {
				t.Errorf("Parse(%q): no error", tt.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.spec, err)
			continue
		}
		tt.check(t, in)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in, err := Parse("store.read:err=0.2,store.write:err=0.5;partial=0.25,vsm.score:lat=5ms@0.5")
	if err != nil {
		t.Fatal(err)
	}
	spec := in.String()
	re, err := Parse(spec)
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec, err)
	}
	if re.String() != spec {
		t.Fatalf("round trip: %q -> %q", spec, re.String())
	}
}

func TestConcurrentDraws(t *testing.T) {
	in := New(1)
	in.SetSleep(func(time.Duration) {})
	in.Set(ServiceHandler, Rule{ErrProb: 0.5, Latency: time.Microsecond, LatencyProb: 0.5})
	in.Set(StoreWrite, Rule{PartialProb: 0.5})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			data := []byte("abcdef")
			for i := 0; i < 200; i++ {
				_ = in.Err(ServiceHandler)
				_, _ = in.Mangle(StoreWrite, data)
				in.Active()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	hits := in.Hits()
	if hits[ServiceHandler] == 0 || hits[StoreWrite] == 0 {
		t.Fatalf("hits %v", hits)
	}
}
