package experiment

import (
	"strings"
	"testing"
)

func TestResilienceStudy(t *testing.T) {
	out, err := ResilienceStudy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"blackout", "flapping", "overload", "cell-death",
		"raw", "resilient", "shed rate", "breaker trips", "reroutes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("resilience study output missing %q:\n%s", want, out)
		}
	}
	// A second run must render the same numbers.
	again, err := ResilienceStudy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatalf("second study run differs:\n%s\nvs\n%s", again, out)
	}
	if _, err := ResilienceStudy(0, 1); err == nil {
		t.Fatal("zero cells accepted")
	}
}
