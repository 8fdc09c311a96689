package authz

// OpInvalidate lets the external tests stand in for a CapCache: it is the
// revocation callback the service sends to each caching server.
var OpInvalidate = opInvalidate
