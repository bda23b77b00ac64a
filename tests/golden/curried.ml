Qualifiers { v >= 0, v <= 0 }

val add2 = \x.\y. + x y
val add3 = \x.\y.\z. + x (+ y z)
