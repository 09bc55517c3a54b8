package flight

import (
	"fmt"
	"sync"
	"testing"
)

// TestAttrTableSharesMaps: equal pairs share one map, empty values are
// left out, and different pairs get different maps.
func TestAttrTableSharesMaps(t *testing.T) {
	var tab AttrTable
	a := tab.Get("check", "asg-uses-ami", "status", "fail", "step", "")
	b := tab.Get("check", "asg-uses-ami", "status", "fail", "step", "")
	if fmt.Sprintf("%p", a) != fmt.Sprintf("%p", b) {
		t.Error("equal pairs got two maps")
	}
	if len(a) != 2 || a["check"] != "asg-uses-ami" || a["status"] != "fail" {
		t.Errorf("map = %v, want check and status only", a)
	}
	if _, ok := a["step"]; ok {
		t.Error("a pair with an empty value was kept")
	}
	if c := tab.Get("check", "asg-uses-ami", "status", "pass"); c["status"] != "pass" {
		t.Errorf("different pairs share a map: %v", c)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { tab.Get("check", "asg-uses-ami", "status", "fail", "step", "") }); n != 0 {
			t.Errorf("a shared map costs %.1f allocations per Get", n)
		}
	}
}

// TestAttrTableBounded: past its cap, and for more pairs than a key holds,
// the table hands out maps of their own without keeping them.
func TestAttrTableBounded(t *testing.T) {
	var tab AttrTable
	for i := 0; i < attrTableCap+10; i++ {
		tab.Get("node", fmt.Sprint(i))
	}
	if len(tab.m) != attrTableCap {
		t.Fatalf("table keeps %d maps, cap %d", len(tab.m), attrTableCap)
	}
	past := fmt.Sprint(attrTableCap + 1)
	if m := tab.Get("node", past); m["node"] != past || len(tab.m) != attrTableCap {
		t.Errorf("past the cap: map %v, %d kept", m, len(tab.m))
	}
	var kv []string
	for i := 0; i < 9; i++ {
		kv = append(kv, fmt.Sprint("k", i), "v")
	}
	if m := tab.Get(kv...); len(m) != 9 {
		t.Errorf("nine pairs gave a map of %d", len(m))
	}
}

func TestAttrTableConcurrent(t *testing.T) {
	var tab AttrTable
	var wg sync.WaitGroup
	maps := make([]map[string]string, 8)
	for g := range maps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				maps[g] = tab.Get("node", fmt.Sprint(i%10))
			}
		}()
	}
	wg.Wait()
	for _, m := range maps {
		if m["node"] != "9" {
			t.Fatalf("last map = %v", m)
		}
	}
}
