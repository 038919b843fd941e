"""Network interface controllers bridging cache controllers and the
main network(s): the arrival-order delivery base and SCORPIO's ordered
NIC on top of it."""

from repro.nic.controller import NetworkInterface, OrderedNetworkInterface

__all__ = ["NetworkInterface", "OrderedNetworkInterface"]
