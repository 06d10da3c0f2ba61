"""Test-only channel ends, shared by the transport and protocol tests."""

from fedmd import transport


def loopback_pair(timeout):
    """The accepted and the connecting end of one TCP connection to a ``transport.serve`` listener."""
    listener = transport.serve(("127.0.0.1", 0), timeout=timeout)
    try:
        connected = transport.connect(listener.address, timeout=timeout)
        return listener.accept(), connected
    finally:
        listener.close()
