package sim

import (
	"sync"
	"testing"
)

// countingAdv carries unsynchronized mutable state across calls; the
// LockAdversary wrapper must keep it race-clean (this test is meaningful
// under -race).
type countingAdv struct{ calls int }

func (a *countingAdv) ReworkExchange(*ExchangeCtx) { a.calls++ }
func (a *countingAdv) ReworkSync(*SyncCtx)         { a.calls++ }

// TestLockAdversarySerializesConcurrentCalls drives one wrapped adversary
// from several goroutines at once, the way a cluster's faulty nodes share
// it, and checks that no call is lost.
func TestLockAdversarySerializesConcurrentCalls(t *testing.T) {
	t.Parallel()
	const goroutines, calls = 6, 200
	adv := &countingAdv{}
	shared := LockAdversary(adv)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				shared.ReworkExchange(&ExchangeCtx{Step: "x"})
				shared.ReworkSync(&SyncCtx{Step: "s"})
			}
		}()
	}
	wg.Wait()
	if adv.calls != 2*goroutines*calls {
		t.Errorf("adversary saw %d calls, want %d", adv.calls, 2*goroutines*calls)
	}
}
