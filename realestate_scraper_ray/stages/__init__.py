# installs the driver-materialization gate (driverbound.py) for every
# to_pandas in this package
from .. import driverbound  # noqa: F401
