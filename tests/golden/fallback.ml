Qualifiers { v = 7 }

val f = \x. + x 1
val g = \x. let y = + x 1 in y
