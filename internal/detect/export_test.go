package detect

// CheckPushMatchesReference lets the external test package, which may
// import the seed data sets, run the push oracle.
var CheckPushMatchesReference = checkPushMatchesReference

// CheckSweepMatchesReference lets the external test package run the
// conductance-sweep oracle on the seed data sets.
var CheckSweepMatchesReference = checkSweepMatchesReference
