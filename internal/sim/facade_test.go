package sim

import (
	"errors"
	"testing"

	"seesaw/internal/core"
)

// TestFacadeVocabularies pins the facade's pass-throughs over the leaf
// packages cmd/ is not allowed to import: the fault-schedule list and
// the event-argument namers must resolve to real names.
func TestFacadeVocabularies(t *testing.T) {
	scheds := FaultSchedules()
	if len(scheds) == 0 {
		t.Fatal("FaultSchedules returned no schedules")
	}
	for _, s := range scheds {
		if s == "" {
			t.Fatal("FaultSchedules returned an empty name")
		}
	}
	if n := FaultKindName(0); n == "" {
		t.Error("FaultKindName(0) is empty")
	}
	if n := CheckKindName(0); n == "" {
		t.Error("CheckKindName(0) is empty")
	}
}

// TestDesignFacade pins the registry pass-throughs: every registered
// name parses back to itself, unknown names get the typed
// core.RuleUnknownDesign rejection, and the metadata view agrees with the
// name list.
func TestDesignFacade(t *testing.T) {
	names := DesignNames()
	if len(names) < 4 {
		t.Fatalf("DesignNames() = %v, want at least the seed four", names)
	}
	for _, n := range names {
		kind, err := ParseCacheKind(n)
		if err != nil || kind.String() != n {
			t.Errorf("ParseCacheKind(%q) = %q, %v", n, kind, err)
		}
	}
	if _, err := ParseCacheKind("no-such-design"); err == nil {
		t.Error("unknown design name parsed without error")
	} else {
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Rule != core.RuleUnknownDesign {
			t.Errorf("unknown design error = %v, want rule %s", err, core.RuleUnknownDesign)
		}
	}
	infos := DesignInfos()
	if len(infos) != len(names) {
		t.Fatalf("DesignInfos() has %d entries, DesignNames() %d", len(infos), len(names))
	}
	for i, d := range infos {
		if string(d.Name) != names[i] || d.Display == "" {
			t.Errorf("info %d = %+v, want name %q and a display label", i, d, names[i])
		}
	}
}
