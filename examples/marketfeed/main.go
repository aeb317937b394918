// Market-feed scenario: continuous joins over two asynchronous streams —
// trades and news alerts — the stream-processing motivation of the paper's
// introduction. Hundreds of standing queries watch for trades in symbols
// that have an active alert; the DAI-T algorithm keeps the steady-state
// traffic low because each standing query's rewrites are reindexed only
// once per symbol. Run with:
//
//	go run ./examples/marketfeed
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cqjoin"
)

func main() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("Trades", "Id", "Symbol", "Price", "Size"),
		cqjoin.MustSchema("Alerts", "Id", "Symbol", "Severity"),
	)
	cluster, err := cqjoin.NewCluster(cqjoin.Config{
		Nodes:     512,
		Catalog:   catalog,
		Algorithm: cqjoin.DAIT,
		UseJFRT:   true,
		Window:    2000, // stale alerts/trades slide out of the join window
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 200 trading desks install severity-filtered standing queries.
	for i := 0; i < 200; i++ {
		desk := cluster.Node(i)
		sql := fmt.Sprintf(`
			SELECT T.Symbol, T.Price, A.Severity
			FROM Trades AS T, Alerts AS A
			WHERE T.Symbol = A.Symbol AND A.Severity >= %d`, 1+i%3)
		if _, err := desk.Subscribe(sql); err != nil {
			log.Fatal(err)
		}
	}

	// Replay a synthetic feed: skewed symbol popularity, alerts rare,
	// trades frequent.
	rng := rand.New(rand.NewSource(7))
	symbols := []string{"ACME", "GLOBO", "INITECH", "HOOLI", "PIEDPIPER", "UMBRELLA"}
	symbol := func() string {
		// Zipf-ish: low indexes much more popular.
		return symbols[rng.Intn(1+rng.Intn(len(symbols)))]
	}
	for i := 0; i < 300; i++ {
		feed := cluster.Node(200 + rng.Intn(300))
		if rng.Intn(10) == 0 {
			if _, err := feed.Publish("Alerts", i, symbol(), 1+rng.Intn(3)); err != nil {
				log.Fatal(err)
			}
		} else {
			if _, err := feed.Publish("Trades", i, symbol(), 50+rng.Intn(100), 1+rng.Intn(1000)); err != nil {
				log.Fatal(err)
			}
		}
	}
	cluster.EvictExpired()

	fmt.Printf("delivered %d notifications to 200 standing queries\n", cluster.NotificationCount())
	fmt.Printf("traffic:\n%s\n", cluster.Traffic())
	fmt.Printf("filtering load: %s\n", cluster.FilteringLoad())
	fmt.Printf("storage load:   %s\n", cluster.StorageLoad())
}
