package flownet

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// engineGolden pins the engine's exact float results at scale.
const engineGolden = "golden_engine_completions.txt"

// renderEngineCompletions drives a scaled-down BenchmarkEngineAdvance10k
// population (4 jobs of 160 hosts, ~640 active flows whose completions
// start replacements, scrambling the link index) for a fixed number of
// completions, enough to cross the interval log's reset. It writes one
// line per completion — the kernel time's float bits and the flow ID —
// then the served-byte and busy-second counters of every link that
// carried traffic, as float bits.
func renderEngineCompletions(w *bytes.Buffer, completions int) {
	k, e, done := psPopulation(4, 160, func(now float64, id FlowID) {
		fmt.Fprintf(w, "%016x %d\n", math.Float64bits(now), id)
	})
	k.Run(func() bool { return *done >= completions })
	e.Sync()
	for l := 0; l < e.NumLinks(); l++ {
		if s, b := e.LinkServedBytes(l), e.LinkBusySeconds(l); s != 0 || b != 0 {
			fmt.Fprintf(w, "l%d %016x %016x\n", l, math.Float64bits(s), math.Float64bits(b))
		}
	}
}

// TestEngineCompletionGolden requires the completion stream and the
// link counters to match testdata/golden_engine_completions.txt byte for
// byte, so any change to the engine's floating-point evaluation order
// shows here, not only in the end-to-end digests.
func TestEngineCompletionGolden(t *testing.T) {
	var got bytes.Buffer
	renderEngineCompletions(&got, 4500)
	want, err := os.ReadFile(filepath.Join("testdata", engineGolden))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("engine results diverge from %s at line %d:\n got: %s\nwant: %s",
				engineGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("engine results length differs from %s: got %d lines, want %d",
		engineGolden, len(gl), len(wl))
}
