package isa_test

import (
	"reflect"
	"testing"

	"repro/internal/cfgx"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// FuzzAssemble feeds arbitrary text to the assembler, the entry point for
// untrusted kernels (tomcc reads stdin). Accepted kernels must be valid,
// must survive a Disassemble/Assemble round trip unchanged, and must
// analyze and decode for the interpreter without panicking.
//
//	go test ./internal/isa -run '^$' -fuzz FuzzAssemble -fuzztime 60s
func FuzzAssemble(f *testing.F) {
	for _, w := range workloads.All() {
		inst, err := w.Build(0.02)
		if err != nil {
			f.Fatal(err)
		}
		seen := map[*isa.Kernel]bool{}
		for _, l := range inst.Launches {
			if !seen[l.Kernel] {
				seen[l.Kernel] = true
				f.Add(isa.Disassemble(l.Kernel))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		kernels, err := isa.Assemble(src)
		if err != nil {
			return
		}
		for _, k := range kernels {
			if err := k.Validate(); err != nil {
				t.Fatalf("accepted kernel %q fails Validate: %v", k.Name, err)
			}
			text := isa.Disassemble(k)
			again, err := isa.Assemble(text)
			if err != nil {
				t.Fatalf("disassembly of %q does not assemble: %v\n%s", k.Name, err, text)
			}
			if len(again) != 1 || !reflect.DeepEqual(again[0].Instrs, k.Instrs) {
				t.Fatalf("round trip of %q changed the instructions\n%s", k.Name, text)
			}
			// An error from either is fine; a panic is not.
			if info, err := cfgx.Analyze(k); err == nil {
				_, _ = exec.Decode(k, info)
			}
		}
	})
}
