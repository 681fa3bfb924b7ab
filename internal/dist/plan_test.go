package dist

import "testing"

func TestPlanCoversDisjointContiguous(t *testing.T) {
	cases := []struct{ total, shards int }{
		{1, 1}, {2, 1}, {10, 3}, {1000, 6}, {1000, 7}, {17, 17}, {20000, 12}, {5, 4},
	}
	for _, tc := range cases {
		shards, err := Plan(tc.total, tc.shards)
		if err != nil {
			t.Fatalf("Plan(%d,%d): %v", tc.total, tc.shards, err)
		}
		want := tc.shards
		if want > tc.total {
			want = tc.total
		}
		if len(shards) != want {
			t.Fatalf("Plan(%d,%d): %d shards, want %d", tc.total, tc.shards, len(shards), want)
		}
		next := 0
		max, min := 0, tc.total+1
		for i, sh := range shards {
			if sh.Index != i {
				t.Errorf("Plan(%d,%d): shard %d has Index %d", tc.total, tc.shards, i, sh.Index)
			}
			if sh.Start != next {
				t.Errorf("Plan(%d,%d): shard %d starts at %d, want %d (gap or overlap)",
					tc.total, tc.shards, i, sh.Start, next)
			}
			if sh.Count <= 0 {
				t.Errorf("Plan(%d,%d): shard %d empty", tc.total, tc.shards, i)
			}
			if sh.Count > max {
				max = sh.Count
			}
			if sh.Count < min {
				min = sh.Count
			}
			next = sh.Start + sh.Count
		}
		if next != tc.total {
			t.Errorf("Plan(%d,%d): covers [0,%d), want [0,%d)", tc.total, tc.shards, next, tc.total)
		}
		if max-min > 1 {
			t.Errorf("Plan(%d,%d): shard sizes spread %d..%d, want near-equal", tc.total, tc.shards, min, max)
		}
		// Larger shards first.
		for i := 1; i < len(shards); i++ {
			if shards[i].Count > shards[i-1].Count {
				t.Errorf("Plan(%d,%d): shard %d larger than shard %d", tc.total, tc.shards, i, i-1)
			}
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(0, 3); err == nil {
		t.Error("Plan(0,3) accepted")
	}
	if _, err := Plan(-5, 3); err == nil {
		t.Error("Plan(-5,3) accepted")
	}
	if _, err := Plan(10, 0); err == nil {
		t.Error("Plan(10,0) accepted")
	}
}
