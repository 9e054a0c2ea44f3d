"""LOOP001 violation fixture (never imported)."""


def python_loop_over_csr(n, xadj, adjncy):
    total = 0
    for u in range(n):
        for j in range(xadj[u], xadj[u + 1]):  # LOOP001
            total += adjncy[j]
    return total
