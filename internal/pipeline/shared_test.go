package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
)

// TestProcessLeavesSharedInputUntouched runs Process concurrently over
// events that share one Fields map and one tag array with spare
// capacity — as duplicated bus events and shared evidence maps do —
// and checks that neither is written: the annotations land in each
// call's own copy. Run under -race it also shows no write races a read.
func TestProcessLeavesSharedInputUntouched(t *testing.T) {
	p := NewRouted(process.RollingUpgradeModel(), logging.NewMemorySink(), nil)
	fields := map[string]string{"taskid": "t"}
	tags := make([]string, 1, 8)
	tags[0] = "upstream"
	bodies := []string{
		"Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.",
		"ERROR: deregistering instance i-1 from ELB elb: LoadBalancerNotFound",
		"Terminating old instance i-7df34041",
	}
	var wg sync.WaitGroup
	for _, body := range bodies {
		ev := opEvent("t", body)
		ev.Fields, ev.Tags = fields, tags
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				out, _ := p.Process(ev)
				if len(out.Tags) < 2 || out.Field("processinstanceid") != "t" {
					t.Errorf("%q was not annotated: tags %v fields %v", body, out.Tags, out.Fields)
					return
				}
			}
		}()
	}
	wg.Wait()
	if want := map[string]string{"taskid": "t"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("the shared fields map became %v", fields)
	}
	if got := tags[:cap(tags)]; got[0] != "upstream" || !reflect.DeepEqual(got[1:], make([]string, cap(tags)-1)) {
		t.Errorf("the shared tag array became %q", got)
	}
}
