package diagplan_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/diagplan"
)

// TestShippedCatalogGolden pins every answer the shipped plan catalog gives
// a diagnosis: each plan's canonical rendering, the plans Select returns per
// assertion id and in which order, and — in every step context, pruned and
// not — each node's children, the causes under it, its preferred path, its
// parents, the potential faults, its rendered description and its test
// parameters. The digests were generated while the rolling-upgrade plans
// were still compiled from Go-built fault trees, so they prove the shipped
// documents walk exactly as those trees did.
func TestShippedCatalogGolden(t *testing.T) {
	const wantSelect = `asg-instance-count=ft-instance-count,plan-spot-rebalance;asg-uses-ami=ft-asg-uses-ami;asg-uses-instance-type=ft-asg-uses-instance-type;asg-uses-keypair=ft-asg-uses-keypair;asg-uses-sg=ft-asg-uses-sg;asg-version-count=ft-version-count,plan-bluegreen;elb-instance-count=ft-elb-count,plan-bluegreen-elb;elb-reachable=ft-elb-reachable;instance-version=ft-instance-version;lc-exists=ft-lc-exists,plan-bluegreen-lc;no-such-assertion=;`
	wantPlans := map[string]string{
		"ft-asg-uses-ami":           "494ff7a9242c7422429ae0dc46ae84895c0758564c5a995366d6c52af0af1ddf",
		"ft-asg-uses-instance-type": "c99ae296b3f767d9069665543bb1cd529b0f6d5b0cf07aec974008595fdd46a1",
		"ft-asg-uses-keypair":       "06eda49c7950d1be9f344da02800f519846cef34d1e47f1e44ee2876a80624f6",
		"ft-asg-uses-sg":            "a8ca2996c4deb997874e17575ac0f8b3fb737650bf6fc356e2ee8e7a3cc37e4c",
		"ft-elb-count":              "507fa41add252432037a35a053c71ab0e841c4a68705a58a593256090dc3413e",
		"ft-elb-reachable":          "f01369d8d4af70c4d772fa4e9dcf3f5b314e5ffd2228c8e02cf1fe9365aaa61f",
		"ft-instance-count":         "f157101873f0b5b2d98b8b15c348c9d58c4082bd37963bf63afc61f072e862bb",
		"ft-instance-version":       "03ebc148873123be3f614c6ca3bcca389da96e687b2d32d3a93a501d57a149a9",
		"ft-lc-exists":              "c1cedcff5b54b17a4a76b70f848887043850cc4d5fe8fc82b286eccdc753741f",
		"ft-version-count":          "faba73ba180ac38ed04a2fd365979f07da6128860e01443e7cd78f3d6fe2e666",
		"plan-bluegreen":            "7c91b70e4bc96edf7223e1aab3a942217aed01c07464454e075bd96cc32f040a",
		"plan-bluegreen-elb":        "cf4e59b01302e38b8d3d8ef3cdb6ddf95c389da7b7dd1d3f8f4d1c55a779aeee",
		"plan-bluegreen-lc":         "bf2fb8406b24e34af3bbd5a263355e39f8b32840a97b500a9193831eac4ccbb5",
		"plan-spot-rebalance":       "40792b2258dd3fccc21f23925840bdfd6472304c3813db2b78bcebda4508bfc4",
	}

	cat := diagplan.FullCatalog()
	params := assertion.Params{
		assertion.ParamASG: "pm--asg", assertion.ParamELB: "pm-elb", assertion.ParamAMI: "ami-2",
		assertion.ParamKeyPair: "key-1", assertion.ParamSG: "sg-1", assertion.ParamInstanceType: "m1.small",
		assertion.ParamVersion: "v2", assertion.ParamWant: "4", assertion.ParamInstance: "i-7", assertion.ParamLC: "lc-2",
	}

	stepSet := map[string]bool{"": true, "a-step-nobody-names": true}
	assertionSet := map[string]bool{"no-such-assertion": true}
	for _, p := range cat.All() {
		assertionSet[p.AssertionID] = true
		for _, n := range p.Nodes {
			for _, s := range n.Steps {
				stepSet[s] = true
			}
		}
	}
	steps, assertions := sortedKeys(stepSet), sortedKeys(assertionSet)

	var sel strings.Builder
	for _, a := range assertions {
		var ids []string
		for _, p := range cat.Select(a) {
			ids = append(ids, p.ID)
		}
		fmt.Fprintf(&sel, "%s=%s;", a, strings.Join(ids, ","))
	}
	if got := sel.String(); got != wantSelect {
		t.Errorf("select order:\n got %s\nwant %s", got, wantSelect)
	}

	gotPlans := map[string]string{}
	for _, c := range cat.Compiled("") {
		p := c.Plan
		h := sha256.New()
		doc, err := p.Render()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(doc)
		nodeIDs := make([]string, 0, len(p.Nodes))
		for _, n := range p.Nodes {
			nodeIDs = append(nodeIDs, n.ID)
		}
		sort.Strings(nodeIDs)
		for _, step := range steps {
			for _, prune := range []bool{true, false} {
				writeView(h, c.View(step, prune), step, prune, nodeIDs, params)
			}
		}
		gotPlans[p.ID] = hex.EncodeToString(h.Sum(nil))
	}
	for _, id := range sortedKeys(gotPlans) {
		if gotPlans[id] != wantPlans[id] {
			t.Errorf("plan %s: digest %q, want %q", id, gotPlans[id], wantPlans[id])
		}
	}
	for id := range wantPlans {
		if _, ok := gotPlans[id]; !ok {
			t.Errorf("plan %s missing from the catalog", id)
		}
	}
}

// writeView writes one view's answers for every plan node, in node id order.
func writeView(h hash.Hash, v *diagplan.View, step string, prune bool, nodeIDs []string, params assertion.Params) {
	entry := ""
	if v.Entry != nil {
		entry = v.Entry.ID
	}
	fmt.Fprintf(h, "view step=%q prune=%t entry=%s potential=%d\n", step, prune, entry, v.PotentialFaults)
	for _, id := range nodeIDs {
		vn := v.Node(id)
		if vn == nil {
			fmt.Fprintf(h, "  %s pruned\n", id)
			continue
		}
		tp := vn.TestParams(params)
		kv := make([]string, 0, len(tp))
		for k, val := range tp {
			kv = append(kv, k+"="+val)
		}
		sort.Strings(kv)
		fmt.Fprintf(h, "  %s check=%s class=%s cause=%t children=%s causes=%s path=%s parents=%s desc=%q test=%s\n",
			id, vn.CheckID, vn.TestClass, vn.Cause, vnodeIDs(vn.Children), vnodeIDs(vn.CausesUnder),
			vn.Path, vn.Parents, vn.Description(params), strings.Join(kv, ","))
	}
}

func vnodeIDs(ns []*diagplan.VNode) string {
	ids := make([]string, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return strings.Join(ids, ",")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
