package gp_test

import (
	"fmt"

	"aquatope/internal/gp"
)

// ExampleGP shows basic GP regression: fit noisy samples of a line and
// query the posterior between them.
func ExampleGP() {
	g := gp.New(gp.NewMatern52(1), 0.01)
	X := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := []float64{0, 0.5, 1.0, 1.5, 2.0} // y = 2x
	if err := g.Fit(X, y); err != nil {
		panic(err)
	}
	mean, variance := g.Posterior([]float64{0.4})
	fmt.Printf("mean near 0.8: %v\n", mean > 0.6 && mean < 1.0)
	fmt.Printf("small variance inside data: %v\n", variance < 0.1)
	// Output:
	// mean near 0.8: true
	// small variance inside data: true
}

// ExampleGP_leaveOneOut demonstrates the diagnostic model used for
// anomaly detection: hold out one observation and compare it against the
// prediction of the remaining ones.
func ExampleGP_leaveOneOut() {
	g := gp.New(gp.NewMatern52(1), 0.01)
	X := [][]float64{{0}, {0.2}, {0.4}, {0.6}, {0.8}, {1}}
	y := []float64{0, 2, 4, 6, 8, 42} // last point corrupted
	if err := g.Fit(X, y); err != nil {
		panic(err)
	}
	means, _ := g.LeaveOneOutAll()
	fmt.Printf("held-out prediction far below 42: %v\n", means[5] < 20)
	// Output:
	// held-out prediction far below 42: true
}
