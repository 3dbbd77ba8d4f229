package sweep

import (
	"context"
	"fmt"
	"os"
	"testing"
)

// TestReplicateHeadlines is an opt-in measurement helper (not run in
// normal test passes): REPLICATE_HEADLINES=1 go test -run
// TestReplicateHeadlines -v ./internal/sweep prints the paper's two
// headline numbers with 3-seed error bars.
func TestReplicateHeadlines(t *testing.T) {
	if os.Getenv("REPLICATE_HEADLINES") == "" {
		t.Skip("set REPLICATE_HEADLINES=1 to run the multi-seed measurement")
	}
	steps := 3000
	gap, err := Replicate(context.Background(), 3, 1, 1, func(_ context.Context, seed int64) (float64, error) {
		r, err := Figure2(Options{Steps: steps, Seed: seed})
		if err != nil {
			return 0, err
		}
		return r.PerformanceGap(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("Fig2 performance gap: %s %%\n", gap)
	imp, err := Replicate(context.Background(), 3, 1, 1, func(_ context.Context, seed int64) (float64, error) {
		r, err := Figure5a(Options{Steps: steps, Seed: seed})
		if err != nil {
			return 0, err
		}
		one, _ := r.BestImprovement()
		return one, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("Fig5a best TLs-One improvement: %s %%\n", imp)
}
