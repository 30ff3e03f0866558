// Fixtures for the unreached analyzer. The file is a main package, so its
// main function is the root every other declaration is measured from.
package main

func main() {
	var s Shape = &Square{Side: 2}
	println(s.Area(), Used(), Point{1, 2}.X, Config{Name: "x"}.Name)
}

// Shape's Area is called through the interface, so the Area of every
// reached type counts as called.
type Shape interface{ Area() float64 }

type Square struct {
	Side  float64
	Color string // want unreached
}

func (q *Square) Area() float64 { return q.Side * q.Side }

func (q *Square) Perimeter() float64 { return 4 * q.Side } // want unreached

// String is a method fmt finds by type assertion: reached with its type.
func (q *Square) String() string { return "square" }

// Circle is never named by reached code; its methods and fields are not
// reported on their own.
type Circle struct{ R float64 } // want unreached

func (c Circle) Area() float64 { return 3 * c.R * c.R }

func Used() int { return helper() }

func helper() int { return Limit }

func Unused() int { return 0 } // want unreached

const Limit = 3

var Spare = 4 // want unreached

// An unkeyed literal uses every field.
type Point struct{ X, Y int }

type Config struct {
	Name string
	Mode int // want unreached
}

//aqualint:allow unreached test oracle: the tests check Used against it
func Oracle() int { return 3 }
