package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestAddAndTotals(t *testing.T) {
	m := NewMeter()
	m.Add("a", 10, false)
	m.Add("a", 5, false)
	m.Add("a", 7, true)
	m.Add("b", 3, false)
	m.AddN("b", 12, 4, true)
	if got := m.TotalBits(); got != 37 {
		t.Errorf("TotalBits = %d, want 37", got)
	}
	if got := m.HonestBits(); got != 18 {
		t.Errorf("HonestBits = %d, want 18", got)
	}
	snap := m.Snapshot()
	if snap["a"].Bits != 15 || snap["a"].Msgs != 2 || snap["a"].FaultyBits != 7 || snap["a"].FaultyMsgs != 1 {
		t.Errorf("tally a = %+v", snap["a"])
	}
	if snap["b"] != (Tally{Bits: 3, Msgs: 1, FaultyBits: 12, FaultyMsgs: 4}) {
		t.Errorf("tally b = %+v", snap["b"])
	}
	if snap["a"].Total() != 22 {
		t.Errorf("Total = %d", snap["a"].Total())
	}
}

func TestBitsByPrefix(t *testing.T) {
	m := NewMeter()
	m.Add("match.sym", 10, false)
	m.Add("match.M", 20, true)
	m.Add("check.det", 40, false)
	if got := m.BitsByPrefix("match."); got != 30 {
		t.Errorf("BitsByPrefix(match.) = %d, want 30", got)
	}
	if got := m.BitsByPrefix("nope"); got != 0 {
		t.Errorf("BitsByPrefix(nope) = %d, want 0", got)
	}
}

func TestRounds(t *testing.T) {
	m := NewMeter()
	for i := 0; i < 5; i++ {
		m.AddRound()
	}
	if m.Rounds() != 5 {
		t.Errorf("Rounds = %d", m.Rounds())
	}
}

func TestNegativeBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative bits")
		}
	}()
	NewMeter().Add("x", -1, false)
}

func TestConcurrentAdds(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add("t", 1, i%2 == 0)
				m.AddRound()
			}
		}()
	}
	wg.Wait()
	if m.TotalBits() != 8000 || m.Rounds() != 8000 {
		t.Errorf("concurrent totals: bits=%d rounds=%d", m.TotalBits(), m.Rounds())
	}
}

func TestStringRendering(t *testing.T) {
	m := NewMeter()
	m.Add("zeta", 1, false)
	m.Add("alpha", 2, false)
	s := m.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "zeta") {
		t.Errorf("String() missing tags: %q", s)
	}
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Error("tags not sorted")
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("Demo", "col1", "longer column")
	tbl.AddRow(1, 3.14159)
	tbl.AddRow("wide-cell-content", "x")
	md := tbl.Markdown()
	if !strings.Contains(md, "### Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(md, "| col1") || !strings.Contains(md, "3.14") {
		t.Errorf("bad render:\n%s", md)
	}
	lines := strings.Split(strings.TrimSpace(md), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), md)
	}
	// All table lines must have equal column structure.
	var widths []int
	for _, l := range lines[2:] {
		if c := strings.Count(l, "|"); c != 3 {
			t.Errorf("row %q has %d pipes", l, c)
		}
		widths = append(widths, len(l))
	}
	for _, w := range widths {
		if w != widths[0] {
			t.Error("misaligned table rows")
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow(1)
	if strings.Contains(tbl.Markdown(), "###") {
		t.Error("unexpected title header")
	}
}
