package main

import "testing"

func TestHighestCPU(t *testing.T) {
	var s cpuSet
	if _, ok := s.highest(); ok {
		t.Error("an empty set has a highest CPU")
	}
	s[0] = 0b1011
	s[2] = 1 << 5 // CPU 133
	one, ok := s.highest()
	var want cpuSet
	want[2] = 1 << 5
	if !ok || one != want {
		t.Errorf("highest = %v, want %v", one, want)
	}
}

func TestPinAndRestore(t *testing.T) {
	before, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := before.highest()
	restore, err := pinToOneCPU()
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restore(); err != nil {
		t.Fatal(err)
	}
	if pinned != one {
		t.Errorf("pinned to %v, want %v", pinned, one)
	}
	after, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("restored to %v, want %v", after, before)
	}
}
