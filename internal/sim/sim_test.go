package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"byzcons/internal/metrics"
)

func TestExchangeDeliversSorted(t *testing.T) {
	res := Run(RunConfig{N: 4, Seed: 1}, func(p *Proc) any {
		var out []Message
		for to := 0; to < 4; to++ {
			if to != p.ID {
				out = append(out, Message{To: to, Payload: p.ID * 10, Bits: 8, Tag: "x"})
			}
		}
		in := p.Exchange("s1", out, nil)
		froms := make([]int, len(in))
		for i, m := range in {
			froms[i] = m.From
		}
		return froms
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for id, v := range res.Values {
		froms := v.([]int)
		if len(froms) != 3 {
			t.Fatalf("proc %d got %d messages", id, len(froms))
		}
		for i := 1; i < len(froms); i++ {
			if froms[i-1] >= froms[i] {
				t.Fatalf("proc %d inbox not sorted by sender: %v", id, froms)
			}
		}
	}
	if got := res.Meter.TotalBits(); got != 4*3*8 {
		t.Errorf("metered %d bits, want %d", got, 4*3*8)
	}
	if res.Meter.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", res.Meter.Rounds())
	}
}

func TestStepMismatchAborts(t *testing.T) {
	res := Run(RunConfig{N: 3, Seed: 1}, func(p *Proc) any {
		step := StepID("a")
		if p.ID == 2 {
			step = "b"
		}
		p.Exchange(step, nil, nil)
		return nil
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "step mismatch") {
		t.Fatalf("err = %v, want step mismatch", res.Err)
	}
}

func TestEarlyExitAborts(t *testing.T) {
	res := Run(RunConfig{N: 3, Seed: 1}, func(p *Proc) any {
		if p.ID == 0 {
			return nil // exits without joining the barrier
		}
		p.Exchange("s", nil, nil)
		return nil
	})
	if res.Err == nil {
		t.Fatal("expected abort when a processor exits early")
	}
}

func TestBodyPanicAborts(t *testing.T) {
	res := Run(RunConfig{N: 3, Seed: 1}, func(p *Proc) any {
		if p.ID == 1 {
			panic("boom")
		}
		p.Exchange("s", nil, nil)
		return nil
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic propagation", res.Err)
	}
}

func TestAbortPropagates(t *testing.T) {
	sentinel := errors.New("deliberate")
	res := Run(RunConfig{N: 3, Seed: 1}, func(p *Proc) any {
		if p.ID == 0 {
			p.Abort(sentinel)
		}
		p.Exchange("s", nil, nil)
		return nil
	})
	if !errors.Is(res.Err, sentinel) {
		t.Fatalf("err = %v, want sentinel", res.Err)
	}
}

func TestSelfSendRejected(t *testing.T) {
	res := Run(RunConfig{N: 2, Seed: 1}, func(p *Proc) any {
		p.Exchange("s", []Message{{To: p.ID, Bits: 1, Tag: "x"}}, nil)
		return nil
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "bad To") {
		t.Fatalf("err = %v, want bad To", res.Err)
	}
}

func TestSenderIdentityEnforced(t *testing.T) {
	// The paper's channel model: a receiver always knows which channel a
	// message arrived on, so From cannot be forged even by the adversary.
	adv := Func(func(ctx *ExchangeCtx) {
		for i := range ctx.Out[1] {
			ctx.Out[1][i].From = 0 // attempt to impersonate processor 0
		}
	})
	res := Run(RunConfig{N: 3, Faulty: []int{1}, Adversary: adv, Seed: 1}, func(p *Proc) any {
		var out []Message
		if p.ID == 1 {
			out = append(out, Message{To: 2, Payload: "spoof", Bits: 8, Tag: "x"})
		}
		in := p.Exchange("s", out, nil)
		if p.ID == 2 {
			return in[0].From
		}
		return nil
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Values[2].(int) != 1 {
		t.Errorf("forged From accepted: got %v", res.Values[2])
	}
}

// Func adapts a function to Adversary for tests.
type Func func(ctx *ExchangeCtx)

func (f Func) ReworkExchange(ctx *ExchangeCtx) { f(ctx) }
func (f Func) ReworkSync(ctx *SyncCtx)         {}

func TestSyncDeliversAllContributions(t *testing.T) {
	res := Run(RunConfig{N: 4, Seed: 1}, func(p *Proc) any {
		vals := p.Sync("gather", p.ID*7, 3, "g", nil)
		sum := 0
		for _, v := range vals {
			sum += v.(int)
		}
		return sum
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for id, v := range res.Values {
		if v.(int) != (0 + 7 + 14 + 21) {
			t.Errorf("proc %d sum = %v", id, v)
		}
	}
	if got := res.Meter.TotalBits(); got != 4*3 {
		t.Errorf("sync metered %d bits, want 12", got)
	}
}

type syncAdv struct{ touched *bool }

func (syncAdv) ReworkExchange(*ExchangeCtx) {}
func (a syncAdv) ReworkSync(ctx *SyncCtx) {
	*a.touched = true
	for i, f := range ctx.Faulty {
		if f {
			ctx.Vals[i] = -1
		}
	}
}

func TestSyncAdversaryRewritesFaultyOnly(t *testing.T) {
	touched := false
	res := Run(RunConfig{N: 3, Faulty: []int{2}, Adversary: syncAdv{&touched}, Seed: 1}, func(p *Proc) any {
		vals := p.Sync("g", p.ID, 0, "g", nil)
		return fmt.Sprintf("%v", vals)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !touched {
		t.Fatal("adversary hook not invoked")
	}
	want := "[0 1 -1]"
	for id, v := range res.Values {
		if v.(string) != want {
			t.Errorf("proc %d saw %v, want %v", id, v, want)
		}
	}
}

func TestFaultyBitsAccountedSeparately(t *testing.T) {
	res := Run(RunConfig{N: 3, Faulty: []int{0}, Seed: 1}, func(p *Proc) any {
		var out []Message
		for to := 0; to < 3; to++ {
			if to != p.ID {
				out = append(out, Message{To: to, Bits: 10, Tag: "x"})
			}
		}
		p.Exchange("s", out, nil)
		return nil
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := res.Meter.Snapshot()["x"]
	if snap.Bits != 40 || snap.FaultyBits != 20 {
		t.Errorf("honest=%d faulty=%d, want 40/20", snap.Bits, snap.FaultyBits)
	}
	if res.Meter.HonestBits() != 40 {
		t.Errorf("HonestBits = %d", res.Meter.HonestBits())
	}
}

// TestMeteringCountsEveryMessage checks the per-tag message and bit counts
// when a sender's outbox switches tags: the barrier meters each run of
// same-tag messages at once, and no run may be lost or merged with the next.
func TestMeteringCountsEveryMessage(t *testing.T) {
	res := Run(RunConfig{N: 3, Faulty: []int{0}, Seed: 1}, func(p *Proc) any {
		var out []Message
		for _, tag := range []string{"x", "y"} {
			for to := 0; to < 3; to++ {
				if to != p.ID {
					out = append(out, Message{To: to, Bits: int64(len(out) + 1), Tag: tag})
				}
			}
		}
		out = append(out, Message{To: (p.ID + 1) % 3, Bits: 100, Tag: "x"}) // runs x x, y y, x
		p.Exchange("s", out, nil)
		return nil
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := res.Meter.Snapshot()
	// Per sender: x carries 1+2+100 bits in 3 messages, y 3+4 bits in 2.
	want := map[string]metrics.Tally{
		"x": {Bits: 2 * 103, Msgs: 2 * 3, FaultyBits: 103, FaultyMsgs: 3},
		"y": {Bits: 2 * 7, Msgs: 2 * 2, FaultyBits: 7, FaultyMsgs: 2},
	}
	for tag, w := range want {
		if snap[tag] != w {
			t.Errorf("tag %s: %+v, want %+v", tag, snap[tag], w)
		}
	}
}

func TestManyRoundsDeterministic(t *testing.T) {
	run := func() []any {
		res := Run(RunConfig{N: 5, Seed: 42}, func(p *Proc) any {
			acc := 0
			for r := 0; r < 50; r++ {
				var out []Message
				for to := 0; to < 5; to++ {
					if to != p.ID {
						out = append(out, Message{To: to, Payload: acc + p.ID, Bits: 4, Tag: "t"})
					}
				}
				in := p.Exchange(StepID(fmt.Sprintf("r%d", r)), out, nil)
				for _, m := range in {
					acc += m.Payload.(int)
				}
			}
			return acc
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic value at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	res := Run(RunConfig{N: 3, Faulty: []int{5}}, func(p *Proc) any { return nil })
	if res.Err == nil {
		t.Error("out-of-range faulty id accepted")
	}
}

func TestHonestValues(t *testing.T) {
	res := Run(RunConfig{N: 4, Faulty: []int{1}, Seed: 1}, func(p *Proc) any { return p.ID })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ids, vals := res.HonestValues([]int{1})
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("ids = %v", ids)
	}
	if vals[1].(int) != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func TestFirstHonest(t *testing.T) {
	res := Run(RunConfig{N: 3, Faulty: []int{0}, Seed: 1}, func(p *Proc) any { return p.FirstHonest() })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, v := range res.Values {
		if v.(int) != 1 {
			t.Errorf("FirstHonest = %v, want 1", v)
		}
	}
}
