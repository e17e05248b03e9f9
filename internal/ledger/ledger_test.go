package ledger

import (
	"strings"
	"testing"
	"testing/quick"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

func twoAccounts() *Ledger {
	return New(map[model.PartyID]*model.Holding{
		"a": holdingOf(100, "d"),
		"b": holdingOf(50),
	})
}

func holdingOf(cash model.Money, items ...model.ItemID) *model.Holding {
	h := model.NewHolding()
	h.Add(model.Bundle{Amount: cash, Items: items})
	return h
}

func TestTransferAndBalance(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if err := l.Transfer("a", "b", model.Cash(30).With("d"), "test"); err != nil {
		t.Fatalf("Transfer = %v", err)
	}
	if got := l.Balance("a"); got.Cash != 70 || got.Items["d"] != 0 {
		t.Errorf("a = %v", got)
	}
	if got := l.Balance("b"); got.Cash != 80 || got.Items["d"] != 1 {
		t.Errorf("b = %v", got)
	}
	if err := l.Audit(); err != nil {
		t.Errorf("Audit = %v", err)
	}
	j := l.Journal()
	if len(j) != 1 || j[0].From != "a" || j[0].Memo != "test" {
		t.Errorf("journal = %v", j)
	}
	if !strings.Contains(j[0].String(), "a → b") {
		t.Errorf("journal entry = %q", j[0].String())
	}
}

func TestTransferErrors(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if err := l.Transfer("a", "b", model.Cash(101), "overdraft"); err == nil {
		t.Fatalf("overdraft accepted")
	}
	if err := l.Transfer("ghost", "b", model.Cash(1), "x"); err == nil {
		t.Fatalf("unknown source accepted")
	}
	if err := l.Transfer("a", "ghost", model.Cash(1), "x"); err == nil {
		t.Fatalf("unknown destination accepted")
	}
	// Failed transfers never mutate.
	if got := l.Balance("a").Cash; got != 100 {
		t.Errorf("a mutated to %v", got)
	}
	if len(l.Journal()) != 0 {
		t.Errorf("journal non-empty after failures")
	}
	// Empty transfers are no-ops.
	if err := l.Transfer("a", "b", model.Bundle{}, "empty"); err != nil {
		t.Errorf("empty transfer = %v", err)
	}
	if len(l.Journal()) != 0 {
		t.Errorf("empty transfer journaled")
	}
}

// Move is Transfer without the journal: the same funding checks, the
// same errors, the same balances, and no entry.
func TestMoveMatchesTransferWithoutJournal(t *testing.T) {
	t.Parallel()
	moved, journaled := twoAccounts(), twoAccounts()
	for _, op := range []struct {
		from, to model.PartyID
		b        model.Bundle
	}{
		{"a", "b", model.Cash(30).With("d")},
		{"a", "b", model.Cash(101)},
		{"ghost", "b", model.Cash(1)},
		{"a", "ghost", model.Cash(1)},
		{"b", "a", model.Bundle{}},
		{"b", "a", model.Goods("d")},
		{"b", "a", model.Goods("d")},
	} {
		errM := moved.Move(op.from, op.to, op.b)
		errT := journaled.Transfer(op.from, op.to, op.b, "memo")
		if (errM == nil) != (errT == nil) || (errM != nil && errM.Error() != errT.Error()) {
			t.Fatalf("%s→%s %v: Move = %v, Transfer = %v", op.from, op.to, op.b, errM, errT)
		}
	}
	if a, b := moved.String(), journaled.String(); a != b {
		t.Fatalf("balances diverge:\n%s\nvs\n%s", a, b)
	}
	if err := moved.Audit(); err != nil {
		t.Fatalf("Audit = %v", err)
	}
	if j := moved.Journal(); len(j) != 0 {
		t.Fatalf("Move journaled %v", j)
	}
	if j := journaled.Journal(); len(j) != 2 {
		t.Fatalf("Transfer journaled %d entries, want 2 (the funded, non-empty ones)", len(j))
	}
}

// Once every account and item is interned, a funded Move allocates
// nothing: no memo, no bundle clone, no journal growth.
func TestMoveZeroAlloc(t *testing.T) {
	l := twoAccounts()
	there, back := model.Cash(5).With("d"), model.Cash(5).With("d")
	if err := l.Move("a", "b", there); err != nil {
		t.Fatal(err)
	}
	if err := l.Move("b", "a", back); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := l.Move("a", "b", there); err != nil {
			t.Fatal(err)
		}
		if err := l.Move("b", "a", back); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("funded Move allocates %v allocs/op, want 0", avg)
	}
}

func TestCanPay(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if !l.CanPay("a", model.Cash(100)) || l.CanPay("a", model.Cash(101)) {
		t.Errorf("CanPay wrong")
	}
	if l.CanPay("ghost", model.Cash(0).With()) {
		t.Errorf("CanPay for unknown account")
	}
}

func TestBalanceIsACopy(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	b := l.Balance("a")
	b.Add(model.Cash(1000))
	if l.Balance("a").Cash != 100 {
		t.Errorf("Balance leaked internal state")
	}
	if got := l.Balance("ghost"); !got.IsEmpty() {
		t.Errorf("ghost balance = %v", got)
	}
}

func TestForProblem(t *testing.T) {
	t.Parallel()
	l := ForProblem(paperex.Example1())
	if got := l.Balance(paperex.Consumer).Cash; got != paperex.RetailPrice {
		t.Errorf("consumer opening = %v", got)
	}
	if got := l.Balance(paperex.Producer).Items[paperex.Doc]; got != 1 {
		t.Errorf("producer opening items = %d", got)
	}
	if got := l.Balance(paperex.Broker).Cash; got != paperex.WholesalePrice {
		t.Errorf("broker opening = %v", got)
	}
}

func TestStringDeterministic(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if l.String() != l.String() {
		t.Errorf("String nondeterministic")
	}
	if !strings.Contains(l.String(), "a: $100") {
		t.Errorf("String = %q", l.String())
	}
}

// Property: any sequence of random transfers preserves conservation.
func TestConservationProperty(t *testing.T) {
	t.Parallel()
	f := func(moves []uint8) bool {
		l := twoAccounts()
		parties := []model.PartyID{"a", "b"}
		for _, mv := range moves {
			from := parties[int(mv)%2]
			to := parties[(int(mv)+1)%2]
			amount := model.Money(mv % 40)
			_ = l.Transfer(from, to, model.Cash(amount), "prop")
		}
		return l.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
