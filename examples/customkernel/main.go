// Customkernel: how to study your own code under continuous
// optimization.
//
// This example writes a dot-product kernel two ways — a naive version
// that rematerializes its table bases inside the loop (the address
// computation lands in one rename bundle and hits the optimizer's
// single-addition limit), and a compiler-style version with hoisted
// bases and walking pointers. The optimizer metrics show why instruction
// scheduling matters to a continuous optimizer, the effect §6.2 of the
// paper attributes to "better compiler scheduling of rename bundles".
// It also demonstrates the retirement trace for inspecting individual
// decisions.
//
// Run: go run ./examples/customkernel
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	contopt "repro"
	"repro/internal/pipeline"
)

const data = `
.org 0x20000
.data params
.quad 48
.data va
.quad 3, 1, 4, 1, 5, 9, 2, 6
.data vb
.quad 2, 7, 1, 8, 2, 8, 1, 8
.data result
.quad 0
`

const naive = `
start:
    ldi params -> r28
    ldq [r28] -> r1       ; passes
    ldi 0 -> r4
pass:
    ldi 0 -> r8           ; byte index
iter:
    ldi va -> r2          ; base rematerialized right next to its use:
    add r2, r8 -> r2      ; ldi+add+ldq in one bundle exceed the
    ldq [r2] -> r5        ; single-addition budget, address stays unknown
    ldi vb -> r3
    add r3, r8 -> r3
    ldq [r3] -> r6
    mul r5, r6 -> r7
    add r4, r7 -> r4
    add r8, 8 -> r8
    cmpult r8, 64 -> r9
    bne r9, iter
    sub r1, 1 -> r1
    bne r1, pass
    ldi result -> r2
    stq r4 -> [r2]
    halt
` + data

const scheduled = `
start:
    ldi params -> r28
    ldq [r28] -> r1       ; passes
    ldi va -> r20         ; bases hoisted out of the loops
    ldi vb -> r21
    ldi 0 -> r4
pass:
    mov r20 -> r2
    mov r21 -> r3
    ldi 8 -> r8
iter:
    ldq [r2] -> r5        ; displacement addressing on walking pointers:
    ldq [r3] -> r6        ; every address generates in the optimizer
    add r2, 8 -> r2
    add r3, 8 -> r3
    sub r8, 1 -> r8
    mul r5, r6 -> r7
    add r4, r7 -> r4
    bne r8, iter
    sub r1, 1 -> r1
    bne r1, pass
    ldi result -> r2
    stq r4 -> [r2]
    halt
` + data

func main() {
	fmt.Println("the same dot product, written two ways:")
	for _, v := range []struct{ name, src string }{
		{"naive (rematerialized bases)", naive},
		{"scheduled (hoisted + walking)", scheduled},
	} {
		prog, err := contopt.Assemble(v.name, v.src)
		if err != nil {
			log.Fatal(err)
		}
		base, err := contopt.RunProgram(context.Background(), contopt.BaselineConfig(), prog)
		if err != nil {
			log.Fatal(err)
		}
		opt, err := contopt.RunProgram(context.Background(), contopt.DefaultConfig(), prog)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-30s %6d -> %6d cycles (speedup %.3f)\n",
			v.name, base.Cycles, opt.Cycles, opt.SpeedupOver(base))
		fmt.Printf("  %-30s early %4.1f%%  addr-gen %5.1f%%  loads removed %5.1f%%\n",
			"", opt.PctEarlyExecuted(), opt.PctAddrGen(), opt.PctLoadsRemoved())
	}
	fmt.Println("\nthe scheduled form is both faster absolutely and far more")
	fmt.Println("transparent to the optimizer (addresses generate, loads forward).")

	// Inspect individual decisions: trace one steady-state iteration of
	// the scheduled version.
	fmt.Println("\nsteady-state retirement trace (scheduled version):")
	prog, _ := contopt.Assemble("trace", scheduled)
	var sb strings.Builder
	s, err := pipeline.New(pipeline.DefaultConfig(), prog)
	if err != nil {
		log.Fatal(err)
	}
	s.SetTraceWriter(&sb)
	if _, err := s.Run(context.Background(), pipeline.RunOpts{}); err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	for _, l := range lines[120:128] {
		fmt.Println(" ", l)
	}
}
