package magistrate

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/wire"
)

// hostIndexOf reports which fixture host runs l (-1 when inert).
func hostIndexOf(fx *fixture, l loid.LOID) int {
	for _, p := range fx.mag.Placements() {
		if p.Object.SameObject(l) && p.Active {
			for i, hl := range fx.hostLs {
				if hl.SameObject(p.Host) {
					return i
				}
			}
		}
	}
	return -1
}

// createOn registers and activates object seq with no host hint and
// returns the index of the host the magistrate chose.
func createOn(t *testing.T, fx *fixture, seq uint64) int {
	t.Helper()
	l := loid.NewNoKey(256, seq)
	if err := fx.client.Register(l, "counter", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.client.Activate(l, loid.Nil); err != nil {
		t.Fatal(err)
	}
	return hostIndexOf(fx, l)
}

func reportLoad(t *testing.T, fx *fixture, h loid.LOID, ld host.Load) {
	t.Helper()
	res, err := fx.caller.Call(fx.magL, "ReportLoad", wire.LOID(h), ld.Marshal())
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
}

func checkRecount(t *testing.T, m *Magistrate, after string) {
	t.Helper()
	if err := m.CheckResidentCounts(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// TestLoadAwarePlacement drives the magistrate's placement on the
// virtual clock: heartbeat freshness is a function of virtual time, so
// the staleness cut-off is tested exactly, not by sleeping.
func TestLoadAwarePlacement(t *testing.T) {
	t.Run("fresh report steers, stale report ignored", func(t *testing.T) {
		fx := newFixture(t, 2)
		vc := clock.NewVirtual(time.Unix(1000, 0))
		fx.mag.SetClock(vc)
		// Host 0 is first in rotation and equally empty, but reports a
		// backlog: the pick goes to host 1.
		reportLoad(t, fx, fx.hostLs[0], host.Load{MailboxDepth: 40})
		if got := createOn(t, fx, 1); got != 1 {
			t.Fatalf("fresh backlog on host 0: placed on host %d, want 1", got)
		}
		// The same report, now exactly loadStaleAfter old, no longer
		// counts: host 0 (0 residents) beats host 1 (1 resident).
		vc.Advance(loadStaleAfter)
		if got := createOn(t, fx, 2); got != 0 {
			t.Fatalf("stale backlog on host 0: placed on host %d, want 0", got)
		}
		checkRecount(t, fx.mag, "activations")
	})
	t.Run("hysteresis holds a sub-margin lead, releases a real one", func(t *testing.T) {
		fx := newFixture(t, 2)
		vc := clock.NewVirtual(time.Unix(1000, 0))
		fx.mag.SetClock(vc)
		if a, b := createOn(t, fx, 1), createOn(t, fx, 2); a != 0 || b != 1 {
			t.Fatalf("idle hosts: placed on %d, %d, want 0, 1", a, b)
		}
		// One resident each and the previous pick (host 1) trails host
		// 0 by 0.25 < PlacementMargin: host 1 is picked again.
		reportLoad(t, fx, fx.hostLs[1], host.Load{MailboxDepth: 1})
		if got := createOn(t, fx, 3); got != 1 {
			t.Fatalf("sub-margin backlog: placed on host %d, want 1 (held)", got)
		}
		if err := fx.client.Delete(loid.NewNoKey(256, 3)); err != nil {
			t.Fatal(err)
		}
		checkRecount(t, fx.mag, "Delete")
		// Back to one resident each; a backlog worth 2 points is a real
		// imbalance and moves the pick off host 1.
		reportLoad(t, fx, fx.hostLs[1], host.Load{MailboxDepth: 8})
		if got := createOn(t, fx, 4); got != 0 {
			t.Fatalf("real imbalance: placed on host %d, want 0", got)
		}
	})
}

// TestPickHostLockedAllocFree pins that load-aware placement reads
// counters, not the table: no allocation, whatever the table holds.
func TestPickHostLockedAllocFree(t *testing.T) {
	fx := newFixture(t, 3)
	for i := uint64(1); i <= 3; i++ {
		createOn(t, fx, i)
	}
	reportLoad(t, fx, fx.hostLs[1], host.Load{MailboxDepth: 3})
	fx.mag.mu.Lock()
	defer fx.mag.mu.Unlock()
	if n := testing.AllocsPerRun(200, func() { fx.mag.pickHostLocked(loid.Nil) }); n != 0 {
		t.Errorf("pickHostLocked allocates %.1f/op, want 0", n)
	}
}

// TestResidentCountsMatchRecount runs the record transitions that move
// residents between hosts — activate, migrate, deactivate, delete,
// host failure with bulk adoption, restore — and checks after each that
// the incremental per-host counts equal a recount of the table.
func TestResidentCountsMatchRecount(t *testing.T) {
	fx := newFixture(t, 3)
	for i := uint64(1); i <= 6; i++ {
		createOn(t, fx, i)
	}
	checkRecount(t, fx.mag, "activations")
	first := loid.NewNoKey(256, 1)
	dest := fx.hostLs[(hostIndexOf(fx, first)+1)%3]
	if err := fx.mag.MigrateObject(context.Background(), first, dest); err != nil {
		t.Fatal(err)
	}
	checkRecount(t, fx.mag, "MigrateObject")
	if err := fx.client.Deactivate(loid.NewNoKey(256, 2)); err != nil {
		t.Fatal(err)
	}
	checkRecount(t, fx.mag, "Deactivate")
	if err := fx.client.Delete(loid.NewNoKey(256, 3)); err != nil {
		t.Fatal(err)
	}
	checkRecount(t, fx.mag, "Delete")

	// Fail the busiest host: its residents settle inert at once, then
	// come back on the survivors in the background.
	busiest, most := 0, -1
	for i, hl := range fx.hostLs {
		n := 0
		for _, p := range fx.mag.Placements() {
			if p.Active && p.Host.SameObject(hl) {
				n++
			}
		}
		if n > most {
			busiest, most = i, n
		}
	}
	affected := fx.mag.HostFailed(fx.hostLs[busiest])
	checkRecount(t, fx.mag, "HostFailed")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		active := 0
		for _, l := range affected {
			if hostIndexOf(fx, l) >= 0 {
				active++
			}
		}
		if active == len(affected) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d residents of the failed host came back", active, len(affected))
		}
	}
	checkRecount(t, fx.mag, "recovery from HostFailed")

	blob, err := fx.mag.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.mag.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	checkRecount(t, fx.mag, "RestoreState")
	for _, hl := range fx.mag.Loads() {
		if hl.Load.Residents != 0 {
			t.Errorf("restored magistrate counts %d residents on %v, want 0", hl.Load.Residents, hl.Host)
		}
	}
}

// BenchmarkActivateAtScale measures one create+activate against a
// standing table of objs active records spread over two hosts. Each
// operation registers a fresh object, activates it with no host hint
// (least-loaded placement), and deletes it again so the table size
// stays put. Placement keeps per-host counts, so the cost must not
// grow with the table (`make bench-placement` gates 1e4 against 1e2).
func BenchmarkActivateAtScale(b *testing.B) {
	for _, exp := range []int{2, 4, 5} {
		objs := int(math.Pow10(exp))
		b.Run(fmt.Sprintf("objs=1e%d", exp), func(b *testing.B) {
			fx := newFixture(b, 2)
			fx.mag.mu.Lock()
			for i := 0; i < objs; i++ {
				rec := &record{impl: "counter"}
				l := loid.NewNoKey(257, uint64(i+1))
				hl := fx.hostLs[i%len(fx.hostLs)]
				fx.mag.setHostLocked(l, rec, hl, fx.hosts[i%len(fx.hosts)].Address())
				fx.mag.table[l] = rec
			}
			fx.mag.mu.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := loid.NewNoKey(256, uint64(i+1))
				if err := fx.client.Register(l, "counter", nil); err != nil {
					b.Fatal(err)
				}
				if _, err := fx.client.Activate(l, loid.Nil); err != nil {
					b.Fatal(err)
				}
				if err := fx.client.Delete(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
