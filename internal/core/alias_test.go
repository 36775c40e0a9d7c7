package core

// target is the name test literals give a startpoint's link.
type target = link
