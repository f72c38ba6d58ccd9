"""The ``repro`` command handlers, one module per family.

:data:`repro.cli.COMMANDS` names each handler as ``module:function``;
the CLI imports the module only when its command runs, and the function
``<handler>_arguments`` beside each handler adds its arguments.
"""
