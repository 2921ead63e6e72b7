package selectors

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := XeonTunedConfig()
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadConfigJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", cfg, back)
	}
}

func TestReadConfigJSONErrors(t *testing.T) {
	if _, err := ReadConfigJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadConfigJSON(strings.NewReader(`{"unknown_field": []}`)); err == nil {
		t.Error("unknown field accepted")
	}
	cfg, err := ReadConfigJSON(strings.NewReader(`{"flagging_words": ["custom phrase"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.FlaggingWords) != 1 || len(cfg.KeySubjects) != 0 {
		t.Errorf("partial config: %+v", cfg)
	}
}

func TestMergeDedupes(t *testing.T) {
	base := DefaultConfig()
	extra := Config{
		FlaggingWords: []string{"should", "brand new phrase"}, // "should" already present
		KeySubjects:   []string{"user"},
	}
	merged := base.Merge(extra)
	if len(merged.FlaggingWords) != len(base.FlaggingWords)+1 {
		t.Errorf("flagging words: %d, want %d", len(merged.FlaggingWords), len(base.FlaggingWords)+1)
	}
	if len(merged.KeySubjects) != len(base.KeySubjects)+1 {
		t.Errorf("key subjects: %d", len(merged.KeySubjects))
	}
	if len(merged.XcompGovernors) != len(base.XcompGovernors) {
		t.Errorf("xcomp governors changed: %d", len(merged.XcompGovernors))
	}
	// base order preserved
	if merged.FlaggingWords[0] != base.FlaggingWords[0] {
		t.Error("order not preserved")
	}
	// empty strings dropped
	m2 := base.Merge(Config{FlaggingWords: []string{""}})
	if len(m2.FlaggingWords) != len(base.FlaggingWords) {
		t.Error("empty keyword kept")
	}
}

func TestMergedConfigWorks(t *testing.T) {
	custom := Config{FlaggingWords: []string{"zgyx pattern"}}
	merged := DefaultConfig().Merge(custom)
	r := New(merged)
	if !accepts(r, 1, "The zgyx pattern appears here.") {
		t.Error("merged keyword not live")
	}
	if !accepts(r, 1, "Buffers are a good choice here.") {
		t.Error("base keyword lost")
	}
}
