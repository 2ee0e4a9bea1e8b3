// Package core is the top of the fixture's layer stack: nothing below
// it may reach back up.
package core

import "strings"

// Orchestrate stands in for the run-everything layer. Its standard
// library import must stay out of the module import graph.
func Orchestrate() string { return strings.ToLower("core") }
