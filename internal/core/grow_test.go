package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/persist"
	"repro/internal/wire"
)

// TestAddJurisdictionAtRuntime grows the system after boot: a new
// Magistrate and hosts appear, announce themselves, and serve objects
// (§4.2.1: "New Host Objects and Magistrates will be added as the
// Legion system expands").
func TestAddJurisdictionAtRuntime(t *testing.T) {
	sys := bootSys(t, Options{})
	before := len(sys.Jurisdictions)

	j2, err := sys.AddJurisdiction(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Jurisdictions) != before+1 || len(j2.Hosts) != 2 {
		t.Fatalf("growth: %d jurisdictions, %d hosts", len(sys.Jurisdictions), len(j2.Hosts))
	}
	// Seq uniqueness: no host or magistrate LOID collides.
	seen := map[loid.LOID]bool{}
	for _, j := range sys.Jurisdictions {
		if seen[j.Magistrate.ID()] {
			t.Fatalf("duplicate magistrate %v", j.Magistrate)
		}
		seen[j.Magistrate.ID()] = true
		for _, h := range j.Hosts {
			if seen[h.ID()] {
				t.Fatalf("duplicate host %v", h)
			}
			seen[h.ID()] = true
		}
	}
	// The new jurisdiction is announced to the core classes.
	info, err := class.NewClient(sys.BootClient(), loid.LegionMagistrate).Info()
	if err != nil || info.Instances != 2 {
		t.Errorf("LegionMagistrate instances = %d, %v", info.Instances, err)
	}
	// And it serves objects end to end.
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, j2.Magistrate, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
		t.Fatalf("call into grown jurisdiction: %v %v", res, err)
	}
}

// TestShareHostOverlappingJurisdictions places one host under two
// Magistrates (§2.2: jurisdictions are potentially non-disjoint).
func TestShareHostOverlappingJurisdictions(t *testing.T) {
	sys := bootSys(t, Options{Jurisdictions: 2, HostsPerJurisdiction: 1})
	j0, j1 := sys.Jurisdictions[0], sys.Jurisdictions[1]
	if err := sys.ShareHost(j0.Hosts[0], j0.HostAddrs[0], j1); err != nil {
		t.Fatal(err)
	}
	hosts, err := magistrate.NewClient(sys.BootClient(), j1.Magistrate).ListHosts()
	if err != nil || len(hosts) != 2 {
		t.Fatalf("shared jurisdiction hosts = %v, %v", hosts, err)
	}
	// Both magistrates can activate objects on the shared host.
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	objA, _, err := cl.Create(nil, j0.Magistrate, j0.Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	objB, _, err := cl.Create(nil, j1.Magistrate, j0.Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	for _, obj := range []loid.LOID{objA, objB} {
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("call on shared host: %v %v", res, err)
		}
	}
}

// TestSplitJurisdiction relieves a loaded magistrate: half the hosts
// and the chosen objects move to a fresh jurisdiction, and clients keep
// working through the usual stale-binding healing (§2.2).
func TestSplitJurisdiction(t *testing.T) {
	sys := bootSys(t, Options{HostsPerJurisdiction: 4})
	src := sys.Jurisdictions[0]
	cl, clsL, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var objs []loid.LOID
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	for i := 0; i < 4; i++ {
		obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatal(err)
		}
	}
	// Split: move the last two objects with the back half of the hosts.
	classOf := func(loid.LOID) loid.LOID { return clsL }
	dst, err := sys.SplitJurisdiction(src, objs[2:], classOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Hosts) != 2 || len(dst.Hosts) != 2 {
		t.Fatalf("host split = %d/%d", len(src.Hosts), len(dst.Hosts))
	}
	// Moved objects serve again (through dst), with state intact.
	for _, obj := range objs[2:] {
		res, err := user.Call(obj, "Inc")
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call after split: %v %v", res, err)
		}
		raw, _ := res.Result(0)
		if v, _ := wire.AsUint64(raw); v != 2 {
			t.Errorf("counter = %d after split, want 2", v)
		}
		known, _, _ := magistrate.NewClient(sys.BootClient(), dst.Magistrate).HasObject(obj)
		if !known {
			t.Errorf("dst magistrate does not know %v", obj)
		}
	}
	// Unmoved objects still work through src.
	for _, obj := range objs[:2] {
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("unmoved object: %v %v", res, err)
		}
	}
	// A single-host jurisdiction refuses to split.
	tiny, err := sys.AddJurisdiction(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SplitJurisdiction(tiny, nil, classOf); err == nil {
		t.Error("split of single-host jurisdiction succeeded")
	}
}

// TestAddJurisdictionOpensConfiguredStore checks that a jurisdiction
// grown at runtime gets the same storage engine as the boot-time ones:
// the configured backend, rooted under the data directory.
func TestAddJurisdictionOpensConfiguredStore(t *testing.T) {
	dir := t.TempDir()
	sys := bootSys(t, Options{DataDir: dir, StoreBackend: "segment"})
	j, err := sys.AddJurisdiction(1)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := j.Store.(*persist.SegmentStore)
	if !ok {
		t.Fatalf("grown jurisdiction store is %T, want *persist.SegmentStore", j.Store)
	}
	if b := seg.Stats().Backend; b != "segment" {
		t.Errorf("store reports backend %q, want segment", b)
	}
	if !strings.HasPrefix(seg.Dir(), dir+string(filepath.Separator)) {
		t.Errorf("store dir %q is not under the data directory %q", seg.Dir(), dir)
	}
}
