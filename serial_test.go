package grappolo_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"grappolo"
)

// TestDetectSerialRejectsNonFiniteThreshold pins DetectSerial's threshold
// check: the serial loop stops when an iteration gains less than the
// threshold, which a NaN threshold never lets happen, so a non-finite
// threshold is an *InputError before any work starts. Each call runs under
// a timer, so a regression fails instead of hanging.
func TestDetectSerialRejectsNonFiniteThreshold(t *testing.T) {
	b := grappolo.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	path := b.Build(1)
	for _, threshold := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan error, 1)
		go func() {
			_, err := grappolo.DetectSerial(path, threshold)
			done <- err
		}()
		select {
		case err := <-done:
			var ie *grappolo.InputError
			if !errors.As(err, &ie) || ie.Arg != "threshold" || !errors.Is(err, grappolo.ErrInvalidInput) {
				t.Errorf("threshold %v: err = %v, want an *InputError for \"threshold\"", threshold, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("threshold %v: DetectSerial did not return within 10 s", threshold)
		}
	}
	res, err := grappolo.DetectSerial(path, 0)
	if err != nil || res.NumCommunities < 1 {
		t.Fatalf("default threshold: res=%+v err=%v", res, err)
	}
}
