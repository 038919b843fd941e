"""Notification network: bufferless OR-mesh providing the fixed-latency
ordering substrate of SCORPIO."""

from repro.notification.network import NotificationNetwork
from repro.notification.tracker import NotificationTracker

__all__ = ["NotificationNetwork", "NotificationTracker"]
