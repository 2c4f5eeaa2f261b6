#!/usr/bin/env python3
"""Smart metering across a federated city network.

The scenario from the paper's introduction: several utilities (water,
energy, parking) each operate a few gateways downtown, but none covers the
whole city.  With BcWAN they federate: a water meter in the energy
company's coverage area delivers its reading through the energy gateway,
which is paid per message via the fair-exchange script — no roaming
contract, no shared network server.

The script runs the workload, then audits the month's "bill": what each
utility earned by forwarding for others and spent on its own meters.

Run::

    python examples/smart_metering.py
"""

from __future__ import annotations

from repro.core import BcWANNetwork, NetworkConfig

UTILITIES = ["water-co", "energy-co", "parking-co", "waste-co"]


def main() -> None:
    config = NetworkConfig(
        num_gateways=len(UTILITIES),
        sensors_per_gateway=6,     # meters per utility
        roaming_offset=1,          # every meter sits in a rival's cell
        exchange_interval=45.0,    # meters report every ~45 s (sped up)
        price=100,                 # micro-payment per delivered reading
        seed=7,
    )
    network = BcWANNetwork(config)
    names = {site.name: UTILITIES[site.index] for site in network.sites}

    print("city federation:")
    for site in network.sites:
        host = UTILITIES[(site.index + 1) % len(UTILITIES)]
        print(f"  {names[site.name]:>11}: 1 gateway, 6 meters deployed "
              f"inside {host}'s coverage")

    report = network.run(num_exchanges=60)
    print()
    print(report.format())

    print()
    print(f"{'utility':>11} | {'readings in':>11} | {'paid out':>9} | "
          f"{'forwarded':>9} | {'earned':>7} | {'net':>7}")
    print("-" * 70)
    for site in network.sites:
        recipient, gateway = site.recipient, site.gateway
        paid = recipient.payments_made * config.price
        earned = gateway.rewards_claimed
        print(f"{names[site.name]:>11} | {recipient.messages_decrypted:>11} |"
              f" {paid:>9} | {gateway.deliveries_forwarded:>9} |"
              f" {earned:>7} | {earned - paid:>+7}")

    total_paid = sum(s.recipient.payments_made for s in network.sites)
    total_earned = sum(s.gateway.claims_made for s in network.sites)
    print("-" * 70)
    print(f"settlement: {total_earned}/{total_paid} payments claimed "
          f"on-chain; the rest remain refundable after "
          f"{config.chain.locktime_grace} blocks (nobody can steal them)")


if __name__ == "__main__":
    main()
