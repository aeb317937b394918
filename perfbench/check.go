package main

import (
	"fmt"
	"sort"
)

// tally is the outcome of comparing delivered notifications with a
// reference join: reference is the expected count, missing the expected
// notifications never delivered, unexpected the deliveries that are not
// in the reference or repeat one already counted.
type tally struct {
	reference, delivered, missing, unexpected int
	// examples holds a few mismatched identities for the report.
	examples []string
}

func (t *tally) add(o tally) {
	t.reference += o.reference
	t.delivered += o.delivered
	t.missing += o.missing
	t.unexpected += o.unexpected
	if len(t.examples) < 4 {
		t.examples = append(t.examples, o.examples...)
	}
}

// errorFrac is (missing + unexpected) / reference.
func (t tally) errorFrac() float64 {
	return per(float64(t.missing+t.unexpected), float64(t.reference))
}

// compare matches the delivered identities, as a multiset, against the
// expected multiset.
func compare(want, got map[string]int) tally {
	t := tally{}
	for _, c := range want {
		t.reference += c
	}
	var miss, extra []string
	for k, c := range got {
		t.delivered += c
		if d := c - want[k]; d > 0 {
			t.unexpected += d
			extra = append(extra, k)
		}
	}
	for k, c := range want {
		if d := c - got[k]; d > 0 {
			t.missing += d
			miss = append(miss, k)
		}
	}
	sort.Strings(miss)
	sort.Strings(extra)
	for i := 0; i < len(miss) && i < 2; i++ {
		t.examples = append(t.examples, "missing "+miss[i])
	}
	for i := 0; i < len(extra) && i < 2; i++ {
		t.examples = append(t.examples, "unexpected "+extra[i])
	}
	return t
}

// pubRec is one publication of a daemon workload as the reference join
// sees it: its stream id, join and selection attributes, and the churn
// epoch it was applied in.
type pubRec struct {
	id       int
	order    bool // Orders row (else Shipments)
	customer int  // Orders only
	product  int
	epoch    int
}

// queryRec is one subscription of a daemon workload: the Orders customer
// its predicate selects, the lowest Orders id it admits (-1: no bound),
// and the epochs [from, to) it was active in. key is set once the daemon
// acknowledged the subscription.
type queryRec struct {
	customer int
	minID    int
	from, to int
	key      string
}

// noEnd marks a query never unsubscribed.
const noEnd = int(^uint(0) >> 1)

// daemonContent is a daemon notification's identity: the query key and
// the two publication ids its select list carries.
func daemonContent(key string, orderID, shipID int) string {
	return fmt.Sprintf("%s|%d|%d", key, orderID, shipID)
}

// referenceJoin computes the notifications the daemon workloads must
// deliver: every (Orders, Shipments) pair with equal products, both
// applied while the query was subscribed, whose Orders row passes the
// query's customer and id predicates — each exactly once.
func referenceJoin(queries []*queryRec, pubs []pubRec) map[string]int {
	ships := make(map[int][]pubRec) // by product
	for _, p := range pubs {
		if !p.order {
			ships[p.product] = append(ships[p.product], p)
		}
	}
	byCustomer := make(map[int][]*queryRec)
	for _, q := range queries {
		if q.key != "" {
			byCustomer[q.customer] = append(byCustomer[q.customer], q)
		}
	}
	want := make(map[string]int)
	for _, o := range pubs {
		if !o.order {
			continue
		}
		for _, q := range byCustomer[o.customer] {
			if o.id < q.minID || o.epoch < q.from || o.epoch >= q.to {
				continue
			}
			for _, s := range ships[o.product] {
				if s.epoch >= q.from && s.epoch < q.to {
					want[daemonContent(q.key, o.id, s.id)]++
				}
			}
		}
	}
	return want
}
