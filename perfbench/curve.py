"""Cost of the Euler-product series against its order: a reference curve.

    PYTHONPATH=src python3 perfbench/curve.py

Expands order_zeta_series once on the first battery datum of every
(field, rank) cell (20 data) at each of ORDERS, and prints the total
seconds per order.
"""

from __future__ import annotations

import time

from massform import order_zeta_series, verify

ORDERS = (10, 20, 40, 60)


def main() -> None:
    cells: dict = {}
    for data in verify.full_battery():
        cells.setdefault((data.field, data.rank), data)
    for order in ORDERS:
        start = time.perf_counter()
        for data in cells.values():
            order_zeta_series(data, order)
        print(f"order {order}: {time.perf_counter() - start:.2f} s for {len(cells)} data", flush=True)


if __name__ == "__main__":
    main()
