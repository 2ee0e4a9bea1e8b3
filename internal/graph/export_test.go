package graph

// OracleBuild exposes the naive reference builder to the external test
// package.
var OracleBuild = oracleBuild
