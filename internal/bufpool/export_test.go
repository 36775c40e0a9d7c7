package bufpool

// Exported for the external test package, which imports the packages whose
// frame sizes the class table is sized for.
const NClasses = nClasses

var ClassSize = classSize
