package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestNewZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("zero seed produced all-zero xoshiro state")
	}
	// Must produce varied output.
	first := r.Uint64()
	varied := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("source stuck on a single value")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched on %d of 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n <= 64; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) hit only %d distinct values in %d draws", n, len(seen), 200*n)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d: count %d deviates more than 5%% from %v", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d, want 4", got)
	}
}

func TestIntRangePanicsWhenInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) did not panic")
		}
	}()
	New(1).IntRange(2, 1)
}

func TestFloatRange(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.FloatRange(0.1, 1.0)
		if v < 0.1 || v >= 1.0 {
			t.Fatalf("FloatRange(0.1,1.0) = %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(23)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) empirical mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	r := New(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	// Property: shuffling preserves the multiset of elements.
	f := func(seed uint64, raw []byte) bool {
		r := New(seed)
		v := make([]int, len(raw))
		for i, b := range raw {
			v[i] = int(b)
		}
		before := make(map[int]int)
		for _, x := range v {
			before[x]++
		}
		r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		after := make(map[int]int)
		for _, x := range v {
			after[x]++
		}
		if len(before) != len(after) {
			return false
		}
		for k, c := range before {
			if after[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(37)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestUniformIntsAndFloats(t *testing.T) {
	r := New(41)
	vi := UniformInts(r, 500, 1, 20)
	if len(vi) != 500 {
		t.Fatalf("UniformInts length = %d", len(vi))
	}
	for _, v := range vi {
		if v < 1 || v > 20 {
			t.Fatalf("UniformInts value %d out of [1,20]", v)
		}
	}
	vf := UniformFloats(r, 500, 0.1, 1.0)
	if len(vf) != 500 {
		t.Fatalf("UniformFloats length = %d", len(vf))
	}
	for _, v := range vf {
		if v < 0.1 || v >= 1.0 {
			t.Fatalf("UniformFloats value %v out of [0.1,1.0)", v)
		}
	}
}

func TestAdjustIntSum(t *testing.T) {
	r := New(43)
	v := UniformInts(r, 500, 1, 20)
	if !AdjustIntSum(r, v, 1, 20, 5000) {
		t.Fatal("AdjustIntSum reported failure on a feasible target")
	}
	sum := 0
	for _, x := range v {
		if x < 1 || x > 20 {
			t.Fatalf("adjusted value %d escaped [1,20]", x)
		}
		sum += x
	}
	if sum != 5000 {
		t.Fatalf("adjusted sum = %d, want 5000", sum)
	}
}

func TestAdjustIntSumInfeasible(t *testing.T) {
	r := New(1)
	v := []int{1, 1, 1}
	if AdjustIntSum(r, v, 1, 2, 100) {
		t.Fatal("AdjustIntSum claimed success on an infeasible target")
	}
	if AdjustIntSum(r, v, 1, 2, 2) {
		t.Fatal("AdjustIntSum claimed success on a too-small target")
	}
}

func TestAdjustIntSumProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := New(seed)
		size := int(n%100) + 1
		v := UniformInts(r, size, 1, 20)
		target := size * 10
		if !AdjustIntSum(r, v, 1, 20, target) {
			return false
		}
		sum := 0
		for _, x := range v {
			if x < 1 || x > 20 {
				return false
			}
			sum += x
		}
		return sum == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsDeterministicAndPrefixStable(t *testing.T) {
	a := Streams(9, 3)
	b := Streams(9, 5)
	if len(a) != 3 || len(b) != 5 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	// Stream i depends only on (seed, i): asking for more streams must not
	// change the earlier ones.
	for i := range a {
		for k := 0; k < 10; k++ {
			va, vb := a[i].Uint64(), b[i].Uint64()
			if va != vb {
				t.Fatalf("stream %d draw %d: %d != %d", i, k, va, vb)
			}
		}
	}
	// Distinct streams diverge, and distinct seeds diverge.
	c := Streams(9, 2)
	d := Streams(10, 2)
	if c[0].Uint64() == c[1].Uint64() && c[0].Uint64() == c[1].Uint64() {
		t.Fatal("sibling streams identical")
	}
	if e, f := Streams(9, 1), d; e[0].Uint64() == f[0].Uint64() {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative stream count accepted")
		}
	}()
	Streams(1, -1)
}

func TestStreamsEmpty(t *testing.T) {
	if s := Streams(1, 0); len(s) != 0 {
		t.Fatalf("Streams(1, 0) = %v", s)
	}
}
