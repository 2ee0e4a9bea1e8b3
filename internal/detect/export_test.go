package detect

// CheckPushMatchesReference lets the external test package, which may
// import the seed data sets, run the push oracle.
var CheckPushMatchesReference = checkPushMatchesReference
