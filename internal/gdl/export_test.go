package gdl

// ReferenceFingerprint exposes the token-slice reference hash to the
// external test package, which can import the corpus.
var ReferenceFingerprint = referenceFingerprint
